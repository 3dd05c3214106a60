package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// distinctSpecs returns n copies of testSpec at distinct seeds, so each
// occupies its own cache entry.
func distinctSpecs(n, base int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = strings.Replace(testSpec, `"seed": 3`, fmt.Sprintf(`"seed": %d`, base+i), 1)
	}
	return out
}

// cacheEntries lists the entry files under dir: regular files not named
// ".tmp-*".
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), ".tmp-") {
			keys = append(keys, e.Name())
		}
	}
	return keys
}

func TestDiskCacheEntryBound(t *testing.T) {
	// Three distinct specs through a 2-entry disk bound: the oldest entry
	// is removed from disk, the recent two survive, and the evicted spec
	// recomputes (and re-persists) on resubmission.
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, CacheDir: dir, CacheMaxEntries: 2, CacheMaxBytes: -1})
	specs := distinctSpecs(3, 200)
	var keys []string
	for i, spec := range specs {
		st, code := submit(t, ts, spec, "?wait=true")
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("submit %d: %d %+v", i, code, st)
		}
		keys = append(keys, st.Key)
	}
	if got := cacheEntries(t, dir); len(got) != 2 {
		t.Fatalf("disk cache holds %d entries, want 2: %v", len(got), got)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[0])); !os.IsNotExist(err) {
		t.Fatalf("oldest entry %s still on disk (err %v)", keys[0], err)
	}
	for _, k := range keys[1:] {
		if _, err := os.Stat(filepath.Join(dir, k)); err != nil {
			t.Fatalf("recent entry %s evicted: %v", k, err)
		}
	}
	if entries, bytes := svc.disk.stats(); entries != 2 || bytes <= 0 {
		t.Fatalf("disk stats = (%d, %d)", entries, bytes)
	}
}

func TestDiskCacheByteBound(t *testing.T) {
	// A byte cap smaller than one entry: every save is evicted right after
	// it lands, the response is still served, and the directory stays
	// empty — the bound holds even in the degenerate case.
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: 1, JobRunners: 1, CacheDir: dir, CacheMaxEntries: -1, CacheMaxBytes: 1})
	st, code := submit(t, ts, testSpec, "?wait=true")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit: %d %+v", code, st)
	}
	if got := cacheEntries(t, dir); len(got) != 0 {
		t.Fatalf("byte-capped disk cache holds %v", got)
	}
	if entries, bytes := svc.disk.stats(); entries != 0 || bytes != 0 {
		t.Fatalf("disk stats = (%d, %d), want empty", entries, bytes)
	}
	// The memory layer still has it.
	if st2, _ := submit(t, ts, testSpec, "?wait=true"); !st2.CacheHit {
		t.Fatal("memory layer lost the result")
	}
}

func TestDiskCacheStartupTrimAndTmpSweep(t *testing.T) {
	// A restarted server adopts persisted entries oldest-first by mtime,
	// trims beyond the configured bound immediately, sweeps stale ".tmp-"
	// write debris a crash left behind, and removes an entry directory of
	// the directory-per-entry layout unread.
	dir := t.TempDir()
	svc1 := New(Config{Workers: 1, JobRunners: 1, CacheDir: dir, CacheMaxEntries: -1, CacheMaxBytes: -1})
	ts1 := newServerFor(t, svc1)
	specs := distinctSpecs(3, 300)
	var keys []string
	for i, spec := range specs {
		st, code := submit(t, ts1, spec, "?wait=true")
		if code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
		keys = append(keys, st.Key)
	}
	ts1.Close()
	svc1.Close()

	// Force a recognizable age order and drop crash debris.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k), when, when); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-"+keys[0]+"-crashed"), []byte(entryMagic), 0o600); err != nil {
		t.Fatal(err)
	}
	// The old-layout entry is the newest: adopting it would trim keys[1].
	oldLayout := filepath.Join(dir, "v1-00000000000000000000000000000000-r1")
	if err := os.MkdirAll(oldLayout, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldLayout, artResult), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, _ := newTestServer(t, Config{Workers: 1, JobRunners: 1, CacheDir: dir, CacheMaxEntries: 2, CacheMaxBytes: -1})
	got := cacheEntries(t, dir)
	if len(got) != 2 {
		t.Fatalf("startup trim left %d entries: %v", len(got), got)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[0])); !os.IsNotExist(err) {
		t.Fatalf("oldest persisted entry survived the startup trim (err %v)", err)
	}
	for _, k := range keys[1:] {
		if info, err := os.Stat(filepath.Join(dir, k)); err != nil || !info.Mode().IsRegular() {
			t.Fatalf("newest entry %s not adopted (err %v)", k, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stale tmp file %s not swept", e.Name())
		}
		if e.IsDir() {
			t.Fatalf("old-layout entry directory %s not swept", e.Name())
		}
	}
	if n, _ := svc2.disk.stats(); n != 2 {
		t.Fatalf("adopted %d entries, want 2", n)
	}
}

// newServerFor wraps an already-created service in an httptest server the
// caller closes itself (for restart tests where Close order matters).
func newServerFor(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	return httptest.NewServer(svc.Handler())
}

// FuzzCacheEntry feeds arbitrary bytes to the entry decoder: it never
// panics, an accepted entry re-encodes to exactly the same bytes, and no
// strict prefix of an accepted entry is accepted, so a torn write is
// always a miss.
func FuzzCacheEntry(f *testing.F) {
	spec, err := scenario.Parse(strings.NewReader(testSpec))
	if err != nil {
		f.Fatal(err)
	}
	r, err := scenario.Run(spec)
	if err != nil {
		f.Fatal(err)
	}
	a, err := render(r, 1)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "entry")
	if _, err := a.save(path); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add([]byte(entryMagic + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		a, ok := decodeEntry(b)
		if !ok {
			return
		}
		var again bytes.Buffer
		if n, err := a.writeEntry(&again); err != nil || n != int64(again.Len()) {
			t.Fatalf("re-encoding an accepted entry: n=%d err=%v", n, err)
		}
		if !bytes.Equal(again.Bytes(), b) {
			t.Fatalf("accepted entry re-encodes differently:\n%q\n%q", b, again.Bytes())
		}
		for k := range b {
			if _, ok := decodeEntry(b[:k]); ok {
				t.Fatalf("the %d-byte prefix of an accepted %d-byte entry is accepted", k, len(b))
			}
		}
	})
}
