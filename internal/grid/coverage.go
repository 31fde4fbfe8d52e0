package grid

import "math/bits"

// CoverageArgmax returns the cells of g covered by the largest number of
// the given regions, and that number; with no covered cell it returns an
// empty region and 0. Every region must belong to g. It is the discrete
// analogue of "the largest subset of disks whose intersection is
// nonempty" from CBG++ (§5.1): any cell covered by k disks witnesses a
// k-subset with nonempty intersection, so the cells at the maximum count
// are exactly the intersection of the largest such subset(s).
//
// The count is bit-sliced: word w of every region feeds
// bits.Len(len(regions)) counter planes, plane j holding bit j of the 64
// per-cell counts of that word. Each region word is added word-wise with
// the carry-save step (sum, carry) = (plane^c, plane&c), moving the
// carry up one plane at a time until it is empty. The maximum is then
// found on the planes from the most significant down: a plane that
// meets the surviving cells sets its bit of the maximum and narrows the
// survivors to itself, and a plane that does not is skipped. The
// survivors after the last plane are exactly the cells whose count
// equals the maximum. Every step works on 64 cells at once; there is no
// per-cell work.
func (g *Grid) CoverageArgmax(regions []*Region) (*Region, int) {
	out := g.NewRegion()
	np := bits.Len(uint(len(regions)))
	if np == 0 {
		return out, 0
	}
	nw := len(out.bits)
	// Word-major: the np planes of word w are planes[w*np : (w+1)*np].
	planes := make([]uint64, nw*np)
	for w := 0; w < nw; w++ {
		acc := planes[w*np : (w+1)*np]
		for _, r := range regions {
			// The count of a lane never exceeds len(regions) < 2^np, so
			// the carry is spent before j reaches np.
			for j, carry := 0, r.bits[w]; carry != 0; j++ {
				acc[j], carry = acc[j]^carry, acc[j]&carry
			}
		}
	}

	survivors := out.bits
	for w := range survivors {
		survivors[w] = ^uint64(0)
	}
	maxCount := 0
	for j := np - 1; j >= 0; j-- {
		if !planeMeets(planes, np, j, survivors) {
			continue
		}
		maxCount |= 1 << j
		for w := range survivors {
			survivors[w] &= planes[w*np+j]
		}
	}
	if maxCount == 0 {
		clear(survivors)
	}
	return out, maxCount
}

// planeMeets reports whether plane j shares a cell with the survivors.
func planeMeets(planes []uint64, np, j int, survivors []uint64) bool {
	for w, s := range survivors {
		if s&planes[w*np+j] != 0 {
			return true
		}
	}
	return false
}
