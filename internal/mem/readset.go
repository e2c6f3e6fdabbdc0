package mem

// ReadSet is the per-transaction read log: the first version observed for
// every word address the transaction loaded. It replaces a freshly-allocated
// map per transaction attempt with a dense, reusable structure so steady-state
// execution allocates nothing: the samples live in a dense list in first-read
// order, and an AddrIndex resolves an address to its position, so Reset is
// O(1) and storage from earlier attempts is recycled.
//
// Append is the only way a sample enters the log, and it only appends: the
// caller guarantees the address is new, from read bits it keeps per word
// anyway (the cache's SR bits on the TCC and bus machines, rival.TxLine's
// read-word mask on the mesh rivals). The index catches up with the
// appended samples on the next Get, so a transaction that never
// re-validates a read never hashes one.
type ReadSet struct {
	idx     AddrIndex
	list    []ReadSample
	indexed int // list[:indexed] is in idx
}

// ReadSample is one read-log entry.
type ReadSample struct {
	Addr    Addr
	Version Version
}

// Reset empties the set, retaining all storage.
func (r *ReadSet) Reset() {
	r.idx.Reset()
	r.list = r.list[:0]
	r.indexed = 0
}

// ReserveSamples sizes the sample list so that n Appends fit without
// growing it: the index is built only if Get is called.
func (r *ReadSet) ReserveSamples(n int) {
	if cap(r.list) < n {
		r.list = append(make([]ReadSample, 0, n), r.list...)
	}
}

// Len returns the number of distinct addresses read.
func (r *ReadSet) Len() int { return len(r.list) }

// Append records the first-read version of a, which the caller guarantees
// is not in the set yet.
func (r *ReadSet) Append(a Addr, v Version) {
	r.list = append(r.list, ReadSample{Addr: a, Version: v})
}

// Get returns the recorded version for a and whether a was read.
func (r *ReadSet) Get(a Addr) (Version, bool) {
	r.catchUp()
	i, ok := r.idx.Get(a)
	if !ok {
		return 0, false
	}
	return r.list[i].Version, true
}

// catchUp indexes the samples Append left unindexed.
func (r *ReadSet) catchUp() {
	for ; r.indexed < len(r.list); r.indexed++ {
		r.idx.Set(r.list[r.indexed].Addr, int32(r.indexed))
	}
}
