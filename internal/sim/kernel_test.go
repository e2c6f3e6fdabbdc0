package sim

import (
	"testing"
	"testing/quick"
)

// fn adapts a plain function to a Handler, so these tests can schedule
// arbitrary checks as typed events.
type fn func()

func (f fn) HandleEvent(code uint32, a1, a2 uint64) { f() }

func TestKernelOrdering(t *testing.T) {
	var k Kernel
	var got []int
	k.Post(10, fn(func() { got = append(got, 1) }), 0, 0, 0)
	k.Post(5, fn(func() { got = append(got, 0) }), 0, 0, 0)
	k.Post(10, fn(func() { got = append(got, 2) }), 0, 0, 0) // same time: schedule order
	k.Post(20, fn(func() { got = append(got, 3) }), 0, 0, 0)
	if !k.Run(0) {
		t.Fatal("Run did not drain")
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("Now = %d, want 20", k.Now())
	}
	if k.Events() != 4 {
		t.Fatalf("Events = %d, want 4", k.Events())
	}
}

func TestKernelAfterNesting(t *testing.T) {
	var k Kernel
	var times []Time
	k.Post(3, fn(func() {
		times = append(times, k.Now())
		k.PostAfter(7, fn(func() { times = append(times, k.Now()) }), 0, 0, 0)
	}), 0, 0, 0)
	k.Run(0)
	if len(times) != 2 || times[0] != 3 || times[1] != 10 {
		t.Fatalf("times = %v, want [3 10]", times)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	var k Kernel
	k.Post(10, fn(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Post(5, fn(func() {}), 0, 0, 0)
	}), 0, 0, 0)
	k.Run(0)
}

func TestKernelRunLimit(t *testing.T) {
	var k Kernel
	n := 0
	for i := 0; i < 10; i++ {
		k.Post(Time(i), fn(func() { n++ }), 0, 0, 0)
	}
	if k.Run(4) {
		t.Fatal("Run(4) claimed to drain")
	}
	if n != 4 {
		t.Fatalf("ran %d events, want 4", n)
	}
	if !k.Run(0) {
		t.Fatal("final Run did not drain")
	}
	if n != 10 {
		t.Fatalf("ran %d events total, want 10", n)
	}
}

func TestKernelRunUntil(t *testing.T) {
	var k Kernel
	var fired []Time
	for _, ti := range []Time{5, 10, 15, 20} {
		tt := ti
		k.Post(tt, fn(func() { fired = append(fired, tt) }), 0, 0, 0)
	}
	if k.RunUntil(12) {
		t.Fatal("RunUntil(12) claimed to drain")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want two events", fired)
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	if !k.RunUntil(100) {
		t.Fatal("RunUntil(100) did not drain")
	}
	if k.Now() != 100 {
		t.Fatalf("Now = %d, want 100 after drain to deadline", k.Now())
	}
}

func TestKernelStepEmpty(t *testing.T) {
	var k Kernel
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
}

// Property: events always execute in nondecreasing time order, regardless of
// insertion order.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var k Kernel
		var times []Time
		for _, d := range delays {
			at := Time(d)
			k.Post(at, fn(func() { times = append(times, k.Now()) }), 0, 0, 0)
		}
		k.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Pending / Next across the wheel-overflow horizon.

// countHandler counts invocations; used where only occupancy matters.
type countHandler struct{ n int }

func (h *countHandler) HandleEvent(code uint32, a1, a2 uint64) { h.n++ }

func TestPendingPeekAcrossOverflowHorizon(t *testing.T) {
	var k Kernel
	h := &countHandler{}

	// One event in the dense ring, one exactly at the horizon edge (first
	// overflow slot), and two far beyond it.
	times := []Time{3, wheelSize - 1, wheelSize, wheelSize * 3, wheelSize*3 + 7}
	for _, at := range times {
		k.Post(at, h, 0, 0, 0)
	}
	if got, want := k.Pending(), len(times); got != want {
		t.Fatalf("Pending() = %d, want %d", got, want)
	}
	if pt, ok := k.Next(); !ok || pt != 3 {
		t.Fatalf("Next() = %d,%v, want 3,true", pt, ok)
	}

	// Drain one event at a time; after each, Next must be the next
	// scheduled time and Pending the remaining count — including across the
	// refills that migrate overflow-heap events into the ring as the wheel
	// base advances past the horizon.
	for i := range times {
		if !k.StepCycle() {
			t.Fatalf("StepCycle drained early at %d", i)
		}
		if got, want := k.Pending(), len(times)-i-1; got != want {
			t.Fatalf("after %d steps: Pending() = %d, want %d", i+1, got, want)
		}
		pt, ok := k.Next()
		if i == len(times)-1 {
			if ok {
				t.Fatalf("after draining: Next() = %d, want none", pt)
			}
			break
		}
		if !ok || pt != times[i+1] {
			t.Fatalf("after %d steps: Next() = %d,%v, want %d,true", i+1, pt, ok, times[i+1])
		}
	}
	if h.n != len(times) {
		t.Fatalf("ran %d events, want %d", h.n, len(times))
	}

	// Same-cycle fan-in at an overflow time must count individually.
	base := k.Now() + wheelSize + 11
	for i := 0; i < 5; i++ {
		k.Post(base, h, 0, uint64(i), 0)
	}
	if got := k.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5", got)
	}
	if pt, ok := k.Next(); !ok || pt != base {
		t.Fatalf("Next() = %d,%v, want %d,true", pt, ok, base)
	}
	k.StepCycle()
	if got := k.Pending(); got != 0 {
		t.Fatalf("Pending() after batch = %d, want 0", got)
	}
}

// ---------------------------------------------------------------------------
// Past-schedule panics at window boundaries.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected past-schedule panic", name)
		}
	}()
	fn()
}

// TestPastSchedulePanicAtEpochBoundary pins the guard the epoch merge
// relies on: after the kernel has executed a window, inserting at or before
// its last executed cycle panics, while the first legal merge time (after
// the window) is accepted. RunWindow must also leave a drained kernel's
// clock at its last event, not at the window end.
func TestPastSchedulePanicAtEpochBoundary(t *testing.T) {
	var k Kernel
	h := &countHandler{}
	k.Post(5, h, 0, 0, 0)
	k.Post(7, h, 0, 0, 0)

	const windowEnd = Time(9)
	k.RunWindow(windowEnd)
	if k.Now() != 7 {
		t.Fatalf("Now() after drained window = %d, want last event cycle 7", k.Now())
	}
	// Merge inserting inside the already-executed range must panic...
	mustPanic(t, "insert before last event", func() { k.Post(6, h, 0, 0, 0) })
	// ...while the epoch contract's arrival times (strictly after the
	// window) are fine, as is the idle remainder of the window itself.
	k.Post(windowEnd+1, h, 0, 0, 0)
	k.Post(8, h, 0, 0, 0) // legal only because RunWindow did not advance to 9

	k.RunWindow(windowEnd + 1)
	if h.n != 4 {
		t.Fatalf("ran %d events, want 4", h.n)
	}
	mustPanic(t, "insert at boundary after run", func() { k.Post(windowEnd, h, 0, 0, 0) })
}
