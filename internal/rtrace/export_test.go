package rtrace

import "fmt"

// CheckOrdered reports the first instance and record kind of c whose
// intervals are not in time order and disjoint — the order in which
// the attribution sweep takes them without sorting.
func CheckOrdered(c *Collector) error {
	x := c.index()
	var rs []rec
	for key := 0; key+1 < len(x.off); key++ {
		rs = x.gather(rs[:0], key/nRecKinds, key%nRecKinds)
		for j := 1; j < len(rs); j++ {
			if rs[j].start < rs[j-1].end {
				return fmt.Errorf("instance %d, kind %d: [%d,%d) starts before [%d,%d) ends",
					key/nRecKinds, key%nRecKinds, rs[j].start, rs[j].end, rs[j-1].start, rs[j-1].end)
			}
		}
	}
	return nil
}

// Records counts c's records, its own and merged.
func Records(c *Collector) int { return len(c.index().pos) }
