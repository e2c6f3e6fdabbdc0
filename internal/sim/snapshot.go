package sim

import (
	"errors"
	"fmt"
	"sort"
)

// Snapshot support: a quiescent kernel — one that is between StepCycle
// batches, with its drain buffer fully consumed — can enumerate every
// pending event and be rebuilt later to a state that replays bit-identically.
// Determinism hinges on preserving each event's original (at, seq) key: the
// restored kernel re-inserts events in ascending key order (so bucket append
// order stays sequence order, the wheel's total-order invariant) and resumes
// the sequence counter past every restored event, so newly posted events
// sort after everything replayed.
//
// Every event is (Handler, code, a1, a2), so every pending event has a
// snapshot form; the caller decides which handlers and payloads it can name.

// PendingEvent is one not-yet-dispatched event in snapshot form. H is the
// live handler reference: the caller maps it to a stable component identity
// when serializing and back to the rebuilt component when restoring.
type PendingEvent struct {
	At   Time
	Seq  uint64
	Code uint32
	A1   uint64
	A2   uint64
	H    Handler
}

// PendingEvents returns every pending event ordered by (At, Seq). It fails
// if the kernel is mid-cycle (drain buffer not consumed — callers must cut
// at a cycle boundary).
func (k *Kernel) PendingEvents() ([]PendingEvent, error) {
	if k.curIdx < len(k.cur) {
		return nil, errors.New("sim: kernel not quiescent (events pending in the current cycle)")
	}
	out := make([]PendingEvent, 0, k.inWheel+len(k.over))
	add := func(e *event) error {
		if e.h == nil {
			return errors.New("sim: pending event has no handler")
		}
		out = append(out, PendingEvent{At: e.at, Seq: e.seq, Code: e.code, A1: e.a1, A2: e.a2, H: e.h})
		return nil
	}
	for i := 0; i < wheelSize; i++ {
		for n := k.head[i]; n != 0; n = k.nodes[n-1].next {
			if err := add(&k.nodes[n-1].ev); err != nil {
				return nil, err
			}
		}
	}
	for i := range k.over {
		if err := add(&k.over[i]); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out, nil
}

// Clock returns the kernel's clock state for a snapshot: current time, the
// tie-break sequence counter, and the executed-event count.
func (k *Kernel) Clock() (now Time, seq, nRun uint64) {
	return k.now, k.seq, k.nRun
}

// Restore resets the kernel and installs a snapshot: the clock state from
// Clock and the pending events from PendingEvents (with handlers rebound to
// the restored components). Events must be sorted ascending by (At, Seq),
// carry their original sequence numbers (all <= seq), and lie at or after
// now. The wheel window restarts at now; far-future events go to the
// overflow heap exactly as the original scheduling placed them relative to
// the new window.
func (k *Kernel) Restore(now Time, seq, nRun uint64, evs []PendingEvent) error {
	*k = Kernel{now: now, base: now, seq: seq, nRun: nRun}
	var prev PendingEvent
	for i, ev := range evs {
		switch {
		case ev.H == nil:
			return fmt.Errorf("sim: restore event %d has no handler", i)
		case ev.At < now:
			return fmt.Errorf("sim: restore event %d at %d is before now %d", i, ev.At, now)
		case ev.Seq == 0 || ev.Seq > seq:
			return fmt.Errorf("sim: restore event %d seq %d outside issued range [1, %d]", i, ev.Seq, seq)
		case i > 0 && (ev.At < prev.At || (ev.At == prev.At && ev.Seq <= prev.Seq)):
			return fmt.Errorf("sim: restore events not strictly ordered by (at, seq) at index %d", i)
		}
		if ev.At-k.base >= wheelSize {
			k.overPush(event{at: ev.At, seq: ev.Seq, h: ev.H, code: ev.Code, a1: ev.A1, a2: ev.A2})
		} else {
			nd := &k.nodes[k.bucketNode(ev.At)-1]
			nd.ev = event{at: ev.At, seq: ev.Seq, h: ev.H, code: ev.Code, a1: ev.A1, a2: ev.A2}
		}
		prev = ev
	}
	return nil
}
