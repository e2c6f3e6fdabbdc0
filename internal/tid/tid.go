// Package tid implements the global Transaction-ID vendor.
//
// Scalable TCC requires a *gap-free* sequence of TIDs ("distributed time
// stamps such as in TLR will not work ... these mechanisms do not produce a
// gap-free sequence"): every directory must either service or skip every TID
// in order, so a TID that was issued but never accounted for would stall the
// whole machine. The vendor therefore also tracks outstanding TIDs so tests
// can assert that every issued TID is eventually retired by a commit or an
// abort notification.
package tid

import "fmt"

// TID is a transaction identifier. Zero means "no TID assigned yet".
type TID uint64

// None is the absent TID.
const None TID = 0

// Vendor issues the gap-free TID sequence 1, 2, 3, ...
type Vendor struct {
	next        TID
	outstanding map[TID]int // TID -> requesting node
}

// NewVendor returns a vendor whose first issued TID is 1.
func NewVendor() *Vendor {
	return &Vendor{next: 1, outstanding: make(map[TID]int)}
}

// Issue returns the next TID, recording node as its holder.
func (v *Vendor) Issue(node int) TID {
	t := v.next
	v.next++
	v.outstanding[t] = node
	return t
}

// Retire marks t as finished (committed or aborted). Retiring an unknown TID
// panics: it would mean a protocol component invented or double-retired a
// TID.
func (v *Vendor) Retire(t TID) {
	if _, ok := v.outstanding[t]; !ok {
		panic(fmt.Sprintf("tid: retire of unknown or already-retired TID %d", t))
	}
	delete(v.outstanding, t)
}

// Outstanding returns the number of issued-but-unretired TIDs.
func (v *Vendor) Outstanding() int { return len(v.outstanding) }

// Issued returns how many TIDs have been issued.
func (v *Vendor) Issued() uint64 { return uint64(v.next - 1) }
