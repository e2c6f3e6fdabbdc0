package tcc

import (
	"errors"
	"testing"
	"time"

	"scalabletcc/internal/sim"
)

// closeAt closes ch at the n-th event it observes.
type closeAt struct {
	n  int
	ch chan struct{}
}

func (o *closeAt) Event(Event) {
	if o.n--; o.n == 0 {
		close(o.ch)
	}
}

// kernelOf returns the kernel a registered machine runs on.
func kernelOf(t *testing.T, sys ProtocolSystem) *sim.Kernel {
	switch p := sys.(type) {
	case *protoScalable:
		return p.sys.inner.Kernel()
	case *protoRival:
		return p.Kernel
	}
	t.Fatalf("no kernel for %T", sys)
	return nil
}

// An Interrupt from another goroutine stops every run loop mid-run: the
// sequential TCC kernel, the epoch engine, and the rivals' Simulate. Run
// returns an error wrapping ErrInterrupted, and the kernel runs no event
// after Run has returned.
func TestInterruptStopsRunMidRun(t *testing.T) {
	for _, c := range []struct {
		name, protocol string
		shards         int
	}{
		{"tcc", "tcc", 0},
		{"tcc-epoch", "tcc", 2},
		{"tl2", "tl2", 0},
		{"eager", "eager", 0},
		{"baseline", "baseline", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(16)
			cfg.Shards = c.shards
			// Uninterrupted, each run takes seconds.
			sys, err := NewSystemFor(c.protocol, cfg, MustProfile("barnes").Scale(8).Build(16, cfg.Seed))
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{})
			sys.Observe(&closeAt{n: 1000, ch: started})
			go func() {
				<-started
				sys.Interrupt()
			}()
			_, err = sys.Run()
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run: %v, want ErrInterrupted", err)
			}
			k := kernelOf(t, sys)
			if k.Pending() == 0 {
				t.Fatal("interrupted run left no event pending: it ran to the end")
			}
			events := k.Events()
			time.Sleep(100 * time.Millisecond)
			if n := k.Events(); n != events {
				t.Fatalf("kernel ran %d events after Run returned", n-events)
			}
		})
	}
}
