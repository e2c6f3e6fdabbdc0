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
