package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
)

// memStats are the cumulative allocation and GC counters of
// runtime.MemStats, or their change between two reads.
type memStats struct {
	allocBytes, allocs uint64
	gcCycles           uint32
}

func readMem() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{ms.TotalAlloc, ms.Mallocs, ms.NumGC}
}

func (r memStats) since(r0 memStats) memStats {
	return memStats{r.allocBytes - r0.allocBytes, r.allocs - r0.allocs, r.gcCycles - r0.gcCycles}
}

// peakRSSMB is the process's peak resident set in MB: getrusage's
// ru_maxrss, which Linux reports in KiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// profile is a running CPU profile.
type profile struct{ f *os.File }

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// sharePackages are the packages whose share of the CPU profile's flat
// samples is reported as <name>.cpu_share. "runtime" also covers the
// runtime's internal packages, the garbage collector included.
var sharePackages = []string{"sim", "netsim", "transport", "scdatp", "ratealloc", "cluster", "topology", "flowsim", "scenario", "service", "runtime"}

// foldProfile folds the profile's flat samples by Go package with
// `go tool pprof -top` and returns each reported package's share.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ns", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	flat := map[string]float64{}
	var total float64
	// Rows read "flat flat% sum% cum cum% name"; the header precedes them.
	sc := bufio.NewScanner(bytes.NewReader(outb))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		pkg := shareBucket(funcPackage(strings.Join(f[5:], " ")))
		flat[pkg] += v
		total += v
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for _, p := range sharePackages {
		shares[p] = flat[p] / total
	}
	return shares, nil
}

// funcPackage returns the import path of a symbolized function name such
// as "repro/internal/sim.(*Simulator).popMin" or "runtime.mallocgc". The
// path ends before any receiver or type-parameter list, which may hold
// other import paths.
func funcPackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// shareBucket maps an import path onto a reported package name: the last
// element for this module's internal packages, "runtime" for the runtime
// and its internals, and the import path otherwise.
func shareBucket(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return filepath.Base(pkg)
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// counts are the exact work counts of one workload's distinct inputs:
// summed over the inputs, except peakActive, which is their maximum. A
// speed-up must leave every one of them unchanged.
type counts struct {
	Events     int64 `json:"sim.events"`
	Packets    int64 `json:"netsim.packets"`
	Drops      int64 `json:"netsim.drops"`
	Violations int64 `json:"ratealloc.violations"`
	Completed  int64 `json:"cluster.completed"`
	Requests   int64 `json:"workload.requests"`
	PeakActive int64 `json:"flowsim.peak_active"`
	FlowsDone  int64 `json:"flowsim.completed"`
}

// merge folds one input's counts into c.
func (c *counts) merge(o counts) {
	c.Events += o.Events
	c.Packets += o.Packets
	c.Drops += o.Drops
	c.Violations += o.Violations
	c.Completed += o.Completed
	c.Requests += o.Requests
	c.PeakActive = max(c.PeakActive, o.PeakActive)
	c.FlowsDone += o.FlowsDone
}

func (c counts) add(m *metrics) {
	m.add("sim.events", float64(c.Events), "count")
	m.add("netsim.packets", float64(c.Packets), "count")
	m.add("netsim.drops", float64(c.Drops), "count")
	m.add("ratealloc.violations", float64(c.Violations), "count")
	m.add("cluster.completed", float64(c.Completed), "count")
	m.add("workload.requests", float64(c.Requests), "count")
	m.add("flowsim.peak_active", float64(c.PeakActive), "count")
	m.add("flowsim.completed", float64(c.FlowsDone), "count")
}

// checkCounts is the exact-count tripwire across runs: the first traced
// run of a workload and seed stores its counts under dir, and every later
// run of the same workload and seed must read the same.
func checkCounts(dir, wl string, seed uint64, c counts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-counts.json", wl, seed))
	got, err := json.Marshal(c)
	if err != nil {
		return err
	}
	if want, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(want, got) {
			return fmt.Errorf("exact counts changed for the same seed: earlier run %s, this run %s", want, got)
		}
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, got, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
