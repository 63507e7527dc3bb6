package sim

import (
	"math/bits"

	"aimt/internal/compiler"
)

// Issuable-MB index.
//
// Every memory-block pick of the standard policies asks one question:
// which is the first frontier block, in (net, layer) order over some
// range of nets, of a given intensity class and host-input state that
// fits in the free SRAM? Copying the whole MB frontier and filtering it
// answers that in O(active) per pick, which makes an all-at-once
// overload superlinear. The index answers it from bitsets instead.
//
// Every active net is filed under the keys of its MB frontier layers:
// (host input landed or pending) × (intensity class: CB>MB, MB>CB or
// equal) × (the layer's MBBlocks bucket). Each key owns a two-level
// bitset over net indices; a query ORs the sets the filter admits and
// jumps to their first member in range, then walks that one net's
// frontier. A net's keys change only where its MB frontier or host
// state changes — issueMB (a layer's last MB issued), completeMB (an
// MB chain unlocked), finishHostIn, arrival and finishNet — and
// Restore refiles the active set, so the index follows the in-flight
// population. Queries are clamped to the window between the lowest and
// the highest active net, so their cost does not grow with the number
// of finished or not yet arrived requests either.

// MBClass is a set of memory-block intensity classes, the key AI-MT's
// Algorithm 2 and early eviction select on.
type MBClass uint8

const (
	// ComputeBound blocks compute longer than they fetch
	// (CBCycles > MBCycles): fetching one builds PE runway.
	ComputeBound MBClass = 1 << iota
	// MemoryBound blocks fetch longer than they compute
	// (MemoryIntensive): the capacity-critical FC-style blocks.
	MemoryBound
	// Balanced blocks fetch and compute for equally long.
	Balanced

	// AnyClass admits every block.
	AnyClass = ComputeBound | MemoryBound | Balanced
)

// classOf returns the class of a compiled layer's blocks.
func classOf(l *compiler.CompiledLayer) MBClass {
	switch {
	case l.CBCycles > l.MBCycles:
		return ComputeBound
	case l.MBCycles > l.CBCycles:
		return MemoryBound
	}
	return Balanced
}

// HostState is a set of host-input states a query admits.
type HostState uint8

const (
	// HostPending admits nets whose input features are still on (or
	// queued for) the host link.
	HostPending HostState = 1 << iota
	// HostLanded admits nets whose input features have arrived.
	HostLanded

	// AnyHost admits every net.
	AnyHost = HostPending | HostLanded
)

// MBFilter selects frontier memory blocks for View.FirstMB.
type MBFilter struct {
	Class     MBClass
	Host      HostState
	MaxBlocks int // largest MBBlocks admitted: the free SRAM, or math.MaxInt for none
}

const (
	numClasses = 3
	// maxSizeBuckets bounds the MBBlocks buckets so that every
	// (host, class, bucket) set fits one uint64 mask. Compiled networks
	// have two sizes (1 and NumArrays); beyond the bound, the last bucket
	// takes every larger size and queries verify sizes per net.
	maxSizeBuckets = 10
)

// netSet is a two-level bitset over net indices: bit n of words marks
// net n a member, and bit w of sum marks words[w] non-zero, so finding
// the next member skips 4096 nets per summary word.
type netSet struct {
	words []uint64
	sum   []uint64
	n     int // member count
}

func (s *netSet) add(net int) {
	w := net >> 6
	if s.words[w] == 0 {
		s.sum[w>>6] |= 1 << (w & 63)
	}
	s.words[w] |= 1 << (net & 63)
	s.n++
}

func (s *netSet) remove(net int) {
	w := net >> 6
	s.words[w] &^= 1 << (net & 63)
	if s.words[w] == 0 {
		s.sum[w>>6] &^= 1 << (w & 63)
	}
	s.n--
}

func (s *netSet) has(net int) bool { return s.words[net>>6]&(1<<(net&63)) != 0 }

// next returns the first member in [lo, hi), or -1.
func (s *netSet) next(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	w := lo >> 6
	if x := s.words[w] & (^uint64(0) << (lo & 63)); x != 0 {
		if n := w<<6 + bits.TrailingZeros64(x); n < hi {
			return n
		}
		return -1
	}
	for w++; w<<6 < hi; {
		y := s.sum[w>>6] & (^uint64(0) << (w & 63))
		if y == 0 {
			w = (w>>6 + 1) << 6
			continue
		}
		w = w&^63 + bits.TrailingZeros64(y)
		if n := w<<6 + bits.TrailingZeros64(s.words[w]); n < hi {
			return n
		}
		return -1
	}
	return -1
}

// mbIndex files active nets by the keys of their MB frontier layers.
// Set (h*numClasses + c)*len(sizes) + b holds the nets with host state
// h (0 pending, 1 landed) and a frontier layer of class c in size
// bucket b; a net's membership is the mask netState.mbSets.
type mbIndex struct {
	// sizes holds the bucket lower bounds: the distinct MBBlocks values
	// of the workload, ascending.
	sizes []int
	// stride is the set offset of the landed host state.
	stride int
	// byFilter[c | h<<3] holds the sets of classes c and host states h
	// over every size bucket; bySize[k] the sets of the k smallest
	// buckets over every class and host state. Their intersection is
	// what a filter admits.
	byFilter [32]uint64
	bySize   []uint64
	sets     []netSet
	nonEmpty uint64 // bit i: sets[i].n > 0
	slab     []uint64
}

// reset sizes the index for nets network instances and the given
// distinct block sizes (ascending), reusing its storage.
func (x *mbIndex) reset(nets int, sizes []int) {
	if len(sizes) > maxSizeBuckets {
		sizes = sizes[:maxSizeBuckets]
	}
	x.sizes = append(x.sizes[:0], sizes...)
	nb := len(x.sizes)
	x.stride = numClasses * nb
	for i := range x.byFilter {
		c, h := MBClass(i&7), HostState(i>>3)
		var m uint64
		for g := 0; g < 2*numClasses; g++ {
			if h&(1<<(g/numClasses)) != 0 && c&(1<<(g%numClasses)) != 0 {
				m |= (1<<nb - 1) << (g * nb)
			}
		}
		x.byFilter[i] = m
	}
	x.bySize = x.bySize[:0]
	for k := 0; k <= nb; k++ {
		var m uint64
		for g := 0; g < 2*numClasses; g++ {
			m |= (1<<k - 1) << (g * nb)
		}
		x.bySize = append(x.bySize, m)
	}
	nw := (nets + 63) >> 6
	ns := (nw + 63) >> 6
	nsets := 2 * x.stride
	if need := nsets * (nw + ns); cap(x.slab) < need {
		x.slab = make([]uint64, need)
	} else {
		x.slab = x.slab[:need]
		clear(x.slab)
	}
	if cap(x.sets) < nsets {
		x.sets = make([]netSet, nsets)
	}
	x.sets = x.sets[:nsets]
	off := 0
	for i := range x.sets {
		x.sets[i] = netSet{
			words: x.slab[off : off+nw : off+nw],
			sum:   x.slab[off+nw : off+nw+ns : off+nw+ns],
		}
		off += nw + ns
	}
	x.nonEmpty = 0
}

// key returns the host-independent key of a layer: its class and size
// bucket.
func (x *mbIndex) key(l *compiler.CompiledLayer) uint8 {
	b := 0
	for b+1 < len(x.sizes) && x.sizes[b+1] <= l.MBBlocks {
		b++
	}
	return uint8(bits.TrailingZeros8(uint8(classOf(l))))*uint8(len(x.sizes)) + uint8(b)
}

// mask returns the sets net state s belongs in, derived from its MB
// frontier and host state.
func (x *mbIndex) mask(s *netState) uint64 {
	off := 0
	if s.hostInDone {
		off = x.stride
	}
	var m uint64
	for _, li := range s.mbFront {
		m |= 1 << (off + int(x.key(&s.cn.Layers[li])))
	}
	return m
}

// refile brings net's membership in line with its frontier and host
// state.
func (x *mbIndex) refile(net int, s *netState) {
	x.move(net, s, x.mask(s))
}

// unfile removes net from every set.
func (x *mbIndex) unfile(net int, s *netState) {
	x.move(net, s, 0)
}

func (x *mbIndex) move(net int, s *netState, want uint64) {
	for d := s.mbSets &^ want; d != 0; d &= d - 1 {
		i := bits.TrailingZeros64(d)
		x.sets[i].remove(net)
		if x.sets[i].n == 0 {
			x.nonEmpty &^= 1 << i
		}
	}
	for d := want &^ s.mbSets; d != 0; d &= d - 1 {
		i := bits.TrailingZeros64(d)
		x.sets[i].add(net)
		x.nonEmpty |= 1 << i
	}
	s.mbSets = want
}

// want returns the sets a filter admits.
func (x *mbIndex) want(f MBFilter) uint64 {
	fit := 0
	for fit < len(x.sizes) && x.sizes[fit] <= f.MaxBlocks {
		fit++
	}
	return x.byFilter[int(f.Class&AnyClass)|int(f.Host&AnyHost)<<3] & x.bySize[fit]
}

// FirstMB returns the first frontier memory block that passes f over
// nets lo..hi-1, in (net, layer) order — the block a scan of
// MBCandidates restricted to that range and filter would meet first.
// With f.MaxBlocks set to FreeBlocks the result is issuable. The cost
// is a few bitset probes, independent of the number of active nets.
func (v *View) FirstMB(f MBFilter, lo, hi int) (MBRef, bool) {
	if len(v.active) == 0 {
		return MBRef{}, false
	}
	lo = max(lo, v.active[0])
	hi = min(hi, v.active[len(v.active)-1]+1)
	if lo >= hi {
		return MBRef{}, false
	}
	x := &v.mbIdx
	want := x.want(f) & x.nonEmpty
	for want != 0 && lo < hi {
		best := hi
		for w := want; w != 0; w &= w - 1 {
			if n := x.sets[bits.TrailingZeros64(w)].next(lo, best); n >= 0 {
				best = n
			}
		}
		if best == hi {
			break
		}
		s := v.nets[best]
		for _, li := range s.mbFront {
			l := &s.cn.Layers[li]
			if f.Class&classOf(l) != 0 && l.MBBlocks <= f.MaxBlocks {
				return MBRef{Net: best, Layer: li, Iter: s.mbIssued[li]}, true
			}
		}
		// Only an oversized member of the last size bucket gets here.
		lo = best + 1
	}
	return MBRef{}, false
}

// HasMBCandidates reports whether any active net has an unlocked
// memory block, issuable or not (MBCandidates is non-empty).
func (v *View) HasMBCandidates() bool { return v.mbIdx.nonEmpty != 0 }
