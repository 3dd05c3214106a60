// Package maprangefix seeds maprange violations for the fixture test,
// alongside each of the sanctioned idioms the analyzer must not flag.
package maprangefix

import (
	"fmt"
	"sort"
)

// SumFloats accumulates floats in map iteration order.
func SumFloats(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "float accumulation inside range over map"
	}
	return total
}

// SelfAssign re-accumulates through a plain assignment.
func SelfAssign(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want "float accumulation inside range over map"
	}
	return total
}

// Collect appends in map order and never sorts.
func Collect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to "out" inside range over map`
	}
	return out
}

// Dump emits output in map order.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "fmt.Println emits output inside range over map"
	}
}

// SortedCollect appends then sorts — the accumulate-then-sort idiom.
func SortedCollect(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PerKey writes per-key results, which are order-insensitive.
func PerKey(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// IntSum is exact and commutative — integer sums are never flagged.
func IntSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Tolerated sums floats under a reasoned escape hatch.
func Tolerated(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		//scda:maprange-ok fixture: caller tolerates ulp-level drift
		t += v
	}
	return t
}

type node struct {
	parent   *node
	children []*node
	keys     []string
	load     float64
}

// OwnField writes fields of the range value: one slice and one sum per key.
func OwnField(m map[string]*node) {
	for k, n := range m {
		n.keys = append(n.keys, k)
		n.load += 1.5
	}
}

// ParentField writes fields of the range value's parent, which siblings
// share, so the children land, and the sum rounds, in map order.
func ParentField(m map[string]*node) {
	for _, n := range m {
		n.parent.children = append(n.parent.children, n) // want `append to "n.parent.children" inside range over map`
		n.parent.load += n.load                          // want "float accumulation inside range over map"
	}
}
