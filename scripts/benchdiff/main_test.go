package main

import (
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

// TestCompareFlags pins the two rules: a median more than 20% slower with
// disjoint ranges, and B/op growth on a row that allocated nothing.
func TestCompareFlags(t *testing.T) {
	old := []row{
		{Name: "slower", NsOp: 100, NsOpMin: f(95), NsOpMax: f(105), BOp: f(0), AllocsOp: f(0)},
		{Name: "overlap", NsOp: 100, NsOpMin: f(90), NsOpMax: f(140), BOp: f(0), AllocsOp: f(0)},
		{Name: "within", NsOp: 100, NsOpMin: f(99), NsOpMax: f(101), BOp: f(0), AllocsOp: f(0)},
		{Name: "grew", NsOp: 100, BOp: f(0), AllocsOp: f(0)},
		{Name: "allocating", NsOp: 100, BOp: f(64), AllocsOp: f(1)},
		{Name: "gone", NsOp: 100},
	}
	cur := []row{
		{Name: "slower", NsOp: 130, NsOpMin: f(125), NsOpMax: f(135), BOp: f(0), AllocsOp: f(0)},
		{Name: "overlap", NsOp: 130, NsOpMin: f(120), NsOpMax: f(150), BOp: f(0), AllocsOp: f(0)},
		{Name: "within", NsOp: 119, NsOpMin: f(118), NsOpMax: f(120), BOp: f(0), AllocsOp: f(0)},
		{Name: "grew", NsOp: 90, BOp: f(8), AllocsOp: f(0)},
		{Name: "allocating", NsOp: 100, BOp: f(128), AllocsOp: f(2)},
		{Name: "added", NsOp: 1},
	}
	var out strings.Builder
	if n := compare(&out, old, cur); n != 2 {
		t.Errorf("flagged %d rows, want 2:\n%s", n, &out)
	}
	want := map[string]string{"slower": "SLOWER", "grew": "B/op 0→8", "gone": "gone", "added": "new"}
	for _, line := range strings.Split(out.String(), "\n") {
		name, _, _ := strings.Cut(line, " ")
		w, marked := want[name]
		if marked && !strings.Contains(line, w) {
			t.Errorf("line %q lacks %q", line, w)
		}
		if !marked && (strings.Contains(line, "SLOWER") || strings.Contains(line, "B/op")) {
			t.Errorf("line %q is flagged", line)
		}
	}
}
