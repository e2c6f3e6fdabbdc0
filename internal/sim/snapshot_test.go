package sim

import (
	"reflect"
	"testing"
)

// recHandler records every dispatch with its time, for replay comparison.
type recHandler struct {
	k   *Kernel
	log [][4]uint64
}

func (r *recHandler) HandleEvent(code uint32, a1, a2 uint64) {
	r.log = append(r.log, [4]uint64{uint64(r.k.Now()), uint64(code), a1, a2})
	// Chain a follow-up to exercise post-restore scheduling determinism.
	if code < 3 {
		r.k.PostAfter(Time(2+a1%5), r, code+10, a1, a2+1)
	}
}

// buildRun schedules a mixed near/far event population and runs the kernel
// cycle-by-cycle until the cut, returning the handler log so far.
func buildRun(k *Kernel, h *recHandler, cutCycles int) {
	for i := 0; i < 40; i++ {
		k.Post(Time(1+i*7%60), h, uint32(i%6), uint64(i), uint64(i*i))
	}
	// Far-future events exercise the overflow heap across the snapshot.
	k.Post(500, h, 7, 1, 2)
	k.Post(1000, h, 8, 3, 4)
	k.Post(70, h, 2, 9, 9)
	for i := 0; i < cutCycles; i++ {
		if !k.StepCycle() {
			break
		}
	}
}

func TestKernelSnapshotRestoreReplaysIdentically(t *testing.T) {
	// Reference: run to completion uninterrupted.
	var ref Kernel
	refH := &recHandler{k: &ref}
	buildRun(&ref, refH, 1<<30)
	for ref.StepCycle() {
	}

	// Interrupted: cut after a few cycles, snapshot, restore, finish.
	var a Kernel
	aH := &recHandler{k: &a}
	buildRun(&a, aH, 6)
	evs, err := a.PendingEvents()
	if err != nil {
		t.Fatal(err)
	}
	now, seq, nRun := a.Clock()
	if nRun == 0 || len(evs) == 0 {
		t.Fatalf("cut too early: nRun=%d pending=%d", nRun, len(evs))
	}

	var b Kernel
	bH := &recHandler{k: &b}
	bH.log = append(bH.log, aH.log...) // prefix dispatched before the cut
	for i := range evs {
		evs[i].H = bH // rebind to the restored component
	}
	if err := b.Restore(now, seq, nRun, evs); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := b.Clock(); got != now {
		t.Fatalf("restored clock %d, want %d", got, now)
	}
	if b.Pending() != len(evs) {
		t.Fatalf("restored pending %d, want %d", b.Pending(), len(evs))
	}
	for b.StepCycle() {
	}
	if !reflect.DeepEqual(bH.log, refH.log) {
		t.Fatalf("restored replay diverged:\n got %d events %v\nwant %d events %v",
			len(bH.log), bH.log, len(refH.log), refH.log)
	}
	if _, seqB, nRunB := b.Clock(); nRunB != func() uint64 { _, _, n := ref.Clock(); return n }() ||
		seqB != func() uint64 { _, s, _ := ref.Clock(); return s }() {
		t.Fatalf("restored counters diverged")
	}
}

func TestRestoreValidation(t *testing.T) {
	h := &recHandler{}
	var k Kernel
	if err := k.Restore(10, 5, 1, []PendingEvent{{At: 9, Seq: 1, H: h}}); err == nil {
		t.Fatal("event before now must be rejected")
	}
	if err := k.Restore(10, 5, 1, []PendingEvent{{At: 12, Seq: 9, H: h}}); err == nil {
		t.Fatal("seq beyond counter must be rejected")
	}
	if err := k.Restore(10, 5, 1, []PendingEvent{{At: 12, Seq: 2, H: h}, {At: 12, Seq: 2, H: h}}); err == nil {
		t.Fatal("unordered events must be rejected")
	}
	if err := k.Restore(10, 5, 1, []PendingEvent{{At: 12, Seq: 2}}); err == nil {
		t.Fatal("nil handler must be rejected")
	}
}
