package histbugs

// RA is one switch's allocator in the rate-allocation tree.
type RA struct {
	Parent   *RA
	Children []*RA
}

// Wire attaches every RA to its parent the way ratealloc.NewHierarchy once
// did: ranging the switch map, so siblings joined their shared parent's
// Children in map order, and a tie between subtrees went to a different
// server from run to run.
func Wire(ras map[int]*RA) {
	for _, ra := range ras {
		if ra.Parent != nil {
			ra.Parent.Children = append(ra.Parent.Children, ra) // want `append to "ra.Parent.Children" inside range over map`
		}
	}
}
