package flowsim

import (
	"math"
	"slices"
	"testing"
)

// TestShareQueueProperty drives one shareQ through seeded schedules of
// pushes, share rises, drains, lost resets, takes and refills, and checks
// every min against a linear scan over the links the schedule has queued:
// the same least share (ties may name any of the tied links) and, for
// takeUpTo, the same set of links. Shares come from a palette with exact
// ties, zeros of both signs, +Inf and values spread over many binades, so
// pushes land both above and below the queue's last. A queued link's
// share only rises, as within a repair.
func TestShareQueueProperty(t *testing.T) {
	const schedules, steps = 3000, 80
	var seen shareQSeen
	for seed := uint64(1); seed <= schedules; seed++ {
		shareQSchedule(t, seed, steps, &seen)
	}
	// the schedules must keep reaching the cases the queue exists for
	for name, n := range map[string]int{
		"push at or below last": seen.below,
		"push above last":       seen.above,
		"tied minimum":          seen.ties,
		"share rose":            seen.rises,
		"drained link":          seen.drains,
		"link not reset":        seen.unreset,
		"take":                  seen.takes,
	} {
		if n < 500 {
			t.Errorf("%s: %d times across %d schedules, want at least 500", name, n, schedules)
		}
	}
}

// shareQSeen counts the cases the property schedules reached.
type shareQSeen struct {
	below, above, ties, rises, drains, unreset, takes int
}

// shareQSchedule runs one seeded schedule, failing the test at the first
// step where the queue and the reference disagree.
func shareQSchedule(t *testing.T, seed uint64, steps int, seen *shareQSeen) {
	t.Helper()
	const nLinks = 24
	rng := churnRNG(seed)
	palette := []float64{
		0, math.Copysign(0, -1), 0.25, 1, 1, 3, 1e6, 1e6, math.Nextafter(1e6, 2e6),
		1e6 * (1 + 1e-12), 5e6, 1e9, math.Inf(1),
	}
	share := func() float64 {
		if rng.intn(2) == 0 {
			return palette[rng.intn(len(palette))]
		}
		return math.Ldexp(rng.pos(), rng.intn(80)-30)
	}
	sv := NewSolver(nLinks)
	sv.epoch = 1
	queued := make([]bool, nLinks)
	restart := func() {
		sv.epoch++
		for l := 0; l < nLinks; l++ {
			sv.stamp[l] = sv.epoch
			sv.cap[l] = share()
			sv.weight[l] = []float64{1, 1, 0.5, 3}[rng.intn(4)]
			queued[l] = false
		}
	}
	restart()
	valid := func(l int) bool { return sv.stamp[l] == sv.epoch && sv.weight[l] > 0 }
	cur := func(l int) float64 { return sv.cap[l] / sv.weight[l] }
	// refMin drops the queued links that drained or lost their reset (the
	// queue drops them when it meets them, and they never come back) and
	// returns the least share of the rest with how many links tie at it.
	refMin := func() (float64, int) {
		m, ties := math.Inf(1), 0
		for l := range queued {
			if !queued[l] {
				continue
			}
			if !valid(l) {
				queued[l] = false
				continue
			}
			switch s := cur(l); {
			case ties == 0 || s < m:
				m, ties = s, 1
			case s == m:
				ties++
			}
		}
		return m, ties
	}
	var q shareQ
	pick := func(want bool) int {
		for tries := 0; tries < 8; tries++ {
			if l := rng.intn(nLinks); queued[l] == want {
				return l
			}
		}
		return -1
	}
	for step := 0; step < steps; step++ {
		switch op := rng.intn(100); {
		case op < 30: // push a link not queued, at its current share
			l := pick(false)
			if l < 0 || sv.weight[l] <= 0 {
				continue
			}
			if math.Float64bits(cur(l))&^(1<<63) > q.last {
				seen.above++
			} else {
				seen.below++
			}
			q.push(cur(l), int32(l))
			queued[l] = true
		case op < 48: // a queued link's share rises, often onto another's
			l := pick(true)
			if l < 0 {
				continue
			}
			c := share() * sv.weight[l]
			if rng.intn(2) == 0 {
				c = cur(rng.intn(nLinks)) * sv.weight[l]
			}
			if c > sv.cap[l] {
				sv.cap[l] = c
				seen.rises++
			}
		case op < 53: // a queued link drains, to zero or to a residue
			if l := pick(true); l >= 0 {
				sv.weight[l] = []float64{0, -1e-18}[rng.intn(2)]
				seen.drains++
			}
		case op < 56: // a queued link was not reset this repair
			if l := pick(true); l >= 0 {
				sv.stamp[l] = sv.epoch - 1
				seen.unreset++
			}
		case op < 96: // min, and from 82 on a take up to a threshold
			want, ties := refMin()
			got, link, ok := q.min(sv)
			if ok != (ties > 0) {
				t.Fatalf("seed %d step %d: min ok = %v, reference holds %d links at the least share", seed, step, ok, ties)
			}
			if !ok {
				continue
			}
			if ties > 1 {
				seen.ties++
			}
			l := int(link)
			if got != want || !queued[l] || !valid(l) || math.Float64bits(cur(l)) != math.Float64bits(got) {
				t.Fatalf("seed %d step %d: min = (%v, link %d), reference least share %v", seed, step, got, l, want)
			}
			if op < 82 {
				continue
			}
			thresh := got * []float64{1, 1 + satEps, 1.5, 1e3}[rng.intn(4)]
			var wantLinks []int32
			for l := range queued {
				if queued[l] && cur(l) <= thresh {
					wantLinks = append(wantLinks, int32(l))
					queued[l] = false
				}
			}
			gotLinks := q.takeUpTo(sv, thresh, nil)
			slices.Sort(gotLinks)
			if !slices.Equal(gotLinks, wantLinks) {
				t.Fatalf("seed %d step %d: takeUpTo(%v) = %v, want %v", seed, step, thresh, gotLinks, wantLinks)
			}
			seen.takes++
		case op < 98: // refill from a subset of the links
			var links []int32
			for l := range queued {
				queued[l] = false
				if rng.intn(2) == 0 {
					links = append(links, int32(l))
					queued[l] = sv.weight[l] > 0
				}
			}
			q.fill(sv, links)
		default: // the next repair
			q.reset()
			restart()
		}
	}
}
