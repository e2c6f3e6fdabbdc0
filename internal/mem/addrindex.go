package mem

// AddrIndex maps line/page addresses to small integer ids. It is the shared
// replacement for the `map[Addr]T` lookups that used to sit on the simulator
// hot path (page homes, cache overflow, read sets): the caller keeps its
// values in a dense slice and this index resolves an address to a slice
// position with one multiplicative hash and a short linear probe. Lines at
// their home need no hash at all (LineStore).
//
// The table is generation-tagged open addressing: Reset is O(1) (bump the
// generation and every slot is stale at once), so per-transaction indexes —
// ReadSet's among them — recycle their storage without clearing or
// rehashing. Deletion is backward-shift removal, which keeps probe chains
// intact without tombstones, so long-lived indexes never degrade.
type AddrIndex struct {
	tab []aiSlot // open-addressing table; len is a power of two
	gen uint32   // current generation; slots with a different gen are empty
	n   int      // live entries
}

type aiSlot struct {
	addr Addr
	gen  uint32
	id   int32
}

const aiMinTable = 64

// rsHash spreads addresses (dense, stride-aligned) across the table; the
// upper bits of a multiplicative hash feed the index.
func rsHash(a Addr) uint32 {
	return uint32((uint64(a) * 0x9E3779B97F4A7C15) >> 32)
}

// Len returns the number of live entries.
func (x *AddrIndex) Len() int { return x.n }

// Reset empties the index, retaining all storage.
func (x *AddrIndex) Reset() {
	x.n = 0
	x.gen++
	if x.gen == 0 {
		// Generation counter wrapped: old tags could alias the new
		// generation, so clear them once. (Once per 2^32 resets.)
		for i := range x.tab {
			x.tab[i].gen = 0
		}
		x.gen = 1
	}
}

// Get returns the id stored for a and whether a is present.
func (x *AddrIndex) Get(a Addr) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint32(len(x.tab) - 1)
	i := rsHash(a) & mask
	for {
		s := &x.tab[i]
		if s.gen != x.gen {
			return 0, false
		}
		if s.addr == a {
			return s.id, true
		}
		i = (i + 1) & mask
	}
}

// Set inserts or overwrites the id for a.
func (x *AddrIndex) Set(a Addr, id int32) {
	if 2*(x.n+1) > len(x.tab) {
		x.grow()
	}
	mask := uint32(len(x.tab) - 1)
	i := rsHash(a) & mask
	for {
		s := &x.tab[i]
		if s.gen != x.gen {
			// Empty or stale slot: claim it for this generation.
			s.addr, s.gen, s.id = a, x.gen, id
			x.n++
			return
		}
		if s.addr == a {
			s.id = id
			return
		}
		i = (i + 1) & mask
	}
}

// Insert returns the id stored for a and true when a is present; otherwise
// it stores id for a and returns id and false. It is Get then Set in one
// probe sequence.
func (x *AddrIndex) Insert(a Addr, id int32) (int32, bool) {
	if 2*(x.n+1) > len(x.tab) {
		x.grow()
	}
	mask := uint32(len(x.tab) - 1)
	i := rsHash(a) & mask
	for {
		s := &x.tab[i]
		if s.gen != x.gen {
			s.addr, s.gen, s.id = a, x.gen, id
			x.n++
			return id, false
		}
		if s.addr == a {
			return s.id, true
		}
		i = (i + 1) & mask
	}
}

// Reserve sizes the table so that n live entries fit without growing.
func (x *AddrIndex) Reserve(n int) {
	size := max(len(x.tab), aiMinTable)
	for 2*n > size {
		size *= 2
	}
	if size > len(x.tab) {
		x.resize(size)
	}
}

// Del removes a from the index and reports whether it was present.
func (x *AddrIndex) Del(a Addr) bool {
	if x.n == 0 {
		return false
	}
	mask := uint32(len(x.tab) - 1)
	i := rsHash(a) & mask
	for {
		s := &x.tab[i]
		if s.gen != x.gen {
			return false
		}
		if s.addr == a {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift deletion: slide each follower of the probe chain over
	// the gap unless its home slot lies cyclically inside (i, j] — that
	// follower is already at or past home and must not move before it.
	j := i
	for {
		j = (j + 1) & mask
		s := &x.tab[j]
		if s.gen != x.gen {
			break
		}
		h := rsHash(s.addr) & mask
		if (j-h)&mask >= (j-i)&mask {
			x.tab[i] = *s
			i = j
		}
	}
	x.tab[i].gen = x.gen - 1 // any value != gen marks the slot empty
	x.n--
	return true
}

// grow doubles the table, allocating the minimum size on first use.
func (x *AddrIndex) grow() { x.resize(max(2*len(x.tab), aiMinTable)) }

// resize moves the live entries into a fresh table of n slots, a power of
// two.
func (x *AddrIndex) resize(n int) {
	old := x.tab
	oldGen := x.gen
	if x.gen == 0 {
		x.gen = 1
	}
	x.tab = make([]aiSlot, n)
	mask := uint32(n - 1)
	for _, s := range old {
		if s.gen != oldGen {
			continue
		}
		i := rsHash(s.addr) & mask
		for x.tab[i].gen == x.gen {
			i = (i + 1) & mask
		}
		x.tab[i] = aiSlot{addr: s.addr, gen: x.gen, id: s.id}
	}
}
