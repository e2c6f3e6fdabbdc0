// Sharded execution: many independent kernels advanced in lockstep epochs.
//
// The classic conservative-lookahead argument (Chandy/Misra/Bryant) applies
// directly to a mesh machine: if every cross-kernel interaction takes at
// least L cycles to arrive, then inside any window [T, T+L-1] the kernels
// cannot affect each other — an effect produced at time t >= T lands at
// t + L >= T + L, strictly after the window. So the executor may run each
// kernel's window worth of events on its own, then apply the captured
// cross-kernel effects serially in a canonical order, and the outcome is
// identical to a sequential interleaving. The epoch geometry (window start =
// global minimum pending time, end = start + L - 1) depends only on event
// times.
//
// The windows run one after another on the calling goroutine. They are far
// too small to pay for a handoff to other goroutines: with the mesh's
// 3-cycle lookahead a window runs 9-14 events at 64 processors, and on a
// 1024-processor barnes run only 33 of 380k windows reach 512 events. A
// parked worker pool that took just the windows above a size grain (tried
// at 64 to 512 events) never beat running them inline, so there is none
// (DESIGN.md §27).
package sim

// none is the peek-cache value of a drained kernel.
const none = ^Time(0)

// ShardExec advances a set of independent kernels in lockstep epochs of
// Window cycles. Each epoch runs every kernel with events in the window;
// then the Merge callback is the only place cross-kernel effects may be
// exchanged — every event it posts must land strictly after the epoch (the
// lookahead contract) and must go through Post, which keeps the executor's
// peek cache exact.
//
// The zero value is not usable; fill in Ks, Window, and Merge. Run may be
// called again after it returns.
type ShardExec struct {
	// Ks are the kernels, typically one per simulated node. Their index
	// order is the canonical serial order Merge should use.
	Ks []*Kernel
	// Window is the lookahead L in cycles: the minimum cross-kernel
	// latency. Must be >= 1.
	Window Time
	// Check, when non-nil, runs at the start of each epoch with the epoch's
	// first cycle; a non-nil error aborts the run (watchdog hook).
	Check func(now Time) error
	// Merge, when non-nil, runs after each epoch's windows with the epoch's
	// inclusive [start, end] bounds and the ascending indices of the kernels
	// that ran the window. Only those kernels' components can have captured
	// cross-kernel effects during the epoch, so a merge need not visit any
	// other kernel's state.
	Merge func(start, end Time, active []int)

	// peeks[i] is kernel i's earliest pending time (none if drained), kept
	// exact without rescanning: a kernel's queue changes only when it runs
	// a window (runKernel stores the time the window stopped at) or when
	// Merge posts into it (Post lowers the entry). Run seeds it once.
	peeks  []Time
	active []int // scratch: kernels with work in the current epoch
}

// Post schedules an event into kernel i during Merge — at time t,
// h.HandleEvent(code, a1, a2) runs on that kernel — and keeps the peek
// cache exact. Every Merge-phase post must come through here: a direct
// Kernel.Post behind the cache's back makes Run panic. Posts made before
// Run (initial events, a restored checkpoint) go straight into the kernels;
// Run peeks every kernel once when it starts.
func (e *ShardExec) Post(i int, t Time, h Handler, code uint32, a1, a2 uint64) {
	e.Ks[i].Post(t, h, code, a1, a2)
	if t < e.peeks[i] {
		e.peeks[i] = t
	}
}

// Run executes epochs until every kernel drains, or Check returns an error.
func (e *ShardExec) Run() error {
	if e.Window < 1 {
		panic("sim: ShardExec.Window must be >= 1")
	}
	if cap(e.peeks) < len(e.Ks) {
		e.peeks = make([]Time, len(e.Ks))
	}
	e.peeks = e.peeks[:len(e.Ks)]
	for i, k := range e.Ks {
		e.peeks[i] = none
		if t, ok := k.peekTime(); ok {
			e.peeks[i] = t
		}
	}
	for {
		start, ok := e.beginEpoch()
		if !ok {
			for _, k := range e.Ks {
				if k.Pending() != 0 {
					panic("sim: kernel holds events the ShardExec peek cache never saw (post with ShardExec.Post)")
				}
			}
			return nil
		}
		if e.Check != nil {
			if err := e.Check(start); err != nil {
				return err
			}
		}
		end := start + e.Window - 1
		for _, i := range e.active {
			e.runKernel(i, end)
		}
		if e.Merge != nil {
			e.Merge(start, end, e.active)
		}
	}
}

// beginEpoch finds the epoch start (the global minimum pending time) and
// collects the kernels with events inside the window. Both are functions of
// event times alone.
func (e *ShardExec) beginEpoch() (Time, bool) {
	start := none
	for _, t := range e.peeks {
		start = min(start, t)
	}
	if start == none {
		return 0, false
	}
	end := start + e.Window - 1
	e.active = e.active[:0]
	for i, t := range e.peeks {
		if t <= end {
			e.active = append(e.active, i)
		}
	}
	return start, true
}

// runKernel runs kernel i's window up to end and refreshes peeks[i] from
// where the window stopped. The kernel's first pending time must be the
// cached one; anything else means an event was posted behind the cache,
// which would silently reorder the run.
func (e *ShardExec) runKernel(i int, end Time) {
	k := e.Ks[i]
	t, ok := k.peekTime()
	if !ok || t != e.peeks[i] {
		panic("sim: kernel's next event differs from the ShardExec peek cache (post with ShardExec.Post)")
	}
	if t, ok = k.runWindowFrom(t, ok, end); !ok {
		t = none
	}
	e.peeks[i] = t
}
