// Command benchdiff compares two records written by scripts/bench.sh
// (BENCH_hotpath.json and a fresh run), row by row:
//
//	go run ./scripts/benchdiff BENCH_hotpath.json fresh.json
//
// For every benchmark it prints both ns/op medians, both min–max ranges
// of the samples and the ratio new ÷ old. It flags a row whose new median
// is more than 20% slower when the two ranges do not overlap (a gap no
// wider than one run's spread is the machine as much as the code), and any
// B/op growth on a row that allocated nothing before. It exits 1 when a
// row is flagged and 2 when a file cannot be read. Rows in only one file
// are listed and not flagged.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// row is one benchmark of a bench.sh record. bench.sh writes null for a
// count a benchmark does not report; a record without ns_op_min and
// ns_op_max (one sample per row) ranges over its median alone.
type row struct {
	Name     string   `json:"name"`
	NsOp     float64  `json:"ns_op"`
	NsOpMin  *float64 `json:"ns_op_min"`
	NsOpMax  *float64 `json:"ns_op_max"`
	BOp      *float64 `json:"b_op"`
	AllocsOp *float64 `json:"allocs_op"`
}

func (r row) span() (lo, hi float64) {
	lo, hi = r.NsOp, r.NsOp
	if r.NsOpMin != nil {
		lo = *r.NsOpMin
	}
	if r.NsOpMax != nil {
		hi = *r.NsOpMax
	}
	return lo, hi
}

// slowdown is the median ratio past which a row with disjoint ranges is
// flagged.
const slowdown = 1.2

// compare writes one line per benchmark, old rows in their order, then
// rows new only to the new record, and returns how many it flagged.
func compare(w io.Writer, old, cur []row) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op (min–max)\tnew ns/op (min–max)\tnew/old\t")
	byName := make(map[string]row, len(cur))
	for _, r := range cur {
		byName[r.Name] = r
	}
	seen := make(map[string]bool, len(old))
	flagged := 0
	for _, o := range old {
		seen[o.Name] = true
		n, ok := byName[o.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%s\t—\t\tgone\n", o.Name, ns(o))
			continue
		}
		var flags string
		_, ohi := o.span()
		nlo, _ := n.span()
		if n.NsOp > slowdown*o.NsOp && nlo > ohi {
			flags += " SLOWER"
		}
		if o.AllocsOp != nil && *o.AllocsOp == 0 && o.BOp != nil && n.BOp != nil && *n.BOp > *o.BOp {
			flags += fmt.Sprintf(" B/op %g→%g", *o.BOp, *n.BOp)
		}
		if flags != "" {
			flagged++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%s\n", o.Name, ns(o), ns(n), n.NsOp/o.NsOp, flags)
	}
	for _, n := range cur {
		if !seen[n.Name] {
			fmt.Fprintf(tw, "%s\t—\t%s\t\tnew\n", n.Name, ns(n))
		}
	}
	tw.Flush()
	return flagged
}

// ns formats a row's median and range.
func ns(r row) string {
	lo, hi := r.span()
	return fmt.Sprintf("%.4g (%.4g–%.4g)", r.NsOp, lo, hi)
}

func load(path string) ([]row, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec struct {
		Benchmarks []row `json:"benchmarks"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rec.Benchmarks, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	var recs [2][]row
	for i, path := range os.Args[1:] {
		var err error
		if recs[i], err = load(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if n := compare(os.Stdout, recs[0], recs[1]); n > 0 {
		fmt.Printf("%d row(s) flagged\n", n)
		os.Exit(1)
	}
}
