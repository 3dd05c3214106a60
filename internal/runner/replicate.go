package runner

import (
	"context"

	"repro/internal/sim"
)

// DeriveSeeds expands a base experiment seed into n per-replicate seeds via
// the deterministic SplitMix64 stream, so replicates are statistically
// independent yet fully reproducible from the base seed. The derivation is
// position-stable: the first k seeds of DeriveSeeds(base, n) equal
// DeriveSeeds(base, k).
func DeriveSeeds(base uint64, n int) []uint64 {
	rng := sim.NewRNG(base)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// ReplicateCtx runs fn once per seed derived from base, fanned out on the
// pool, and returns the per-replicate results in replicate order. Each
// invocation receives its own seed and must build all randomness from it
// (sim.NewRNG(seed) per task, never shared across tasks). Cancellation
// follows MapCtx's rules: no replicate starts once ctx is done, and the
// seed stream is unchanged — replicate i always receives
// DeriveSeeds(base, n)[i] regardless of how many replicates actually ran.
func ReplicateCtx[T any](ctx context.Context, p *Pool, base uint64, n int, fn func(ctx context.Context, rep int, seed uint64) (T, error)) ([]T, error) {
	seeds := DeriveSeeds(base, n)
	return MapCtx(ctx, p, n, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i, seeds[i])
	})
}
