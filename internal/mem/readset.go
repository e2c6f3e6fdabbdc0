package mem

// ReadSet is the per-transaction read log: the first version observed for
// every word address the transaction loaded. It replaces a freshly-allocated
// map per transaction attempt with a dense, reusable structure so steady-state
// execution allocates nothing.
//
// The index is a generation-tagged open-addressing table rather than a Go
// map: Add/Get on the simulator hot path cost one multiplicative hash and a
// short linear probe, and Reset is O(1) — bumping the generation makes every
// slot stale at once, so storage from earlier attempts is recycled without
// being cleared or rehashed.
type ReadSet struct {
	tab  []rsSlot // open-addressing table; len is a power of two
	gen  uint32   // current generation; slots with a different gen are empty
	list []ReadSample
}

type rsSlot struct {
	addr Addr
	gen  uint32
	idx  int32
}

// ReadSample is one read-log entry.
type ReadSample struct {
	Addr    Addr
	Version Version
}

const rsMinTable = 64

// rsHash spreads word addresses (dense, stride-aligned) across the table;
// the upper bits of a multiplicative hash feed the index.
func rsHash(a Addr) uint32 {
	return uint32((uint64(a) * 0x9E3779B97F4A7C15) >> 32)
}

// Reset empties the set, retaining all storage.
func (r *ReadSet) Reset() {
	r.list = r.list[:0]
	r.gen++
	if r.gen == 0 {
		// Generation counter wrapped: old tags could alias the new
		// generation, so clear them once. (Once per 2^32 resets.)
		for i := range r.tab {
			r.tab[i].gen = 0
		}
		r.gen = 1
	}
}

// Len returns the number of distinct addresses read.
func (r *ReadSet) Len() int { return len(r.list) }

// Add records the first-read version of a. It reports whether the address was
// newly inserted; a repeated read of the same address leaves the original
// sample in place, matching first-read semantics.
func (r *ReadSet) Add(a Addr, v Version) bool {
	if 2*(len(r.list)+1) > len(r.tab) {
		r.grow()
	}
	mask := uint32(len(r.tab) - 1)
	i := rsHash(a) & mask
	for {
		s := &r.tab[i]
		if s.gen != r.gen {
			// Empty or stale slot: claim it for this generation.
			s.addr, s.gen, s.idx = a, r.gen, int32(len(r.list))
			r.list = append(r.list, ReadSample{Addr: a, Version: v})
			return true
		}
		if s.addr == a {
			return false
		}
		i = (i + 1) & mask
	}
}

// Get returns the recorded version for a and whether a was read.
func (r *ReadSet) Get(a Addr) (Version, bool) {
	if len(r.tab) == 0 {
		return 0, false
	}
	mask := uint32(len(r.tab) - 1)
	i := rsHash(a) & mask
	for {
		s := &r.tab[i]
		if s.gen != r.gen {
			return 0, false
		}
		if s.addr == a {
			return r.list[s.idx].Version, true
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table (allocating the minimum size on first use) and
// reindexes the live entries. Live entries never shrink away mid-generation,
// so reinsertion from the dense list rebuilds exact state.
func (r *ReadSet) grow() {
	n := 2 * len(r.tab)
	if n < rsMinTable {
		n = rsMinTable
	}
	if r.gen == 0 {
		r.gen = 1
	}
	r.tab = make([]rsSlot, n)
	mask := uint32(n - 1)
	for idx, s := range r.list {
		i := rsHash(s.Addr) & mask
		for r.tab[i].gen == r.gen {
			i = (i + 1) & mask
		}
		r.tab[i] = rsSlot{addr: s.Addr, gen: r.gen, idx: int32(idx)}
	}
}
