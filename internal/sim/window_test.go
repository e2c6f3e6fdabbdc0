package sim

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
)

// ---------------------------------------------------------------------------
// Windowed vs direct execution equivalence on random event programs.

// The toy program: events carry (budget, uid) packed in a1. A handled event
// records itself in the node's trace and, while budget remains, spawns one
// local child and one cross-node child with times derived from a pure hash
// of (seed, node, now, a1) — pure so behaviour cannot depend on the
// interleaving of same-cycle arrivals, which is exactly the freedom the
// window merge has relative to posting directly.

const toyWindow = Time(3) // lookahead: cross-node sends arrive >= L+1 later

type toyRec struct {
	at   Time
	node int
	a1   uint64
}

func toyMix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
	}
	return h
}

// toySend is one cross-node child held back to the window boundary.
type toySend struct {
	at   Time // arrival time
	src  int
	dst  int
	sent Time
	a1   uint64
}

// toyNode is one node of the toy program. Windowed, it captures
// cross-node children into *out instead of posting them, the way the epoch
// engine holds cross-node messages to the window boundary.
type toyNode struct {
	id       int
	k        *Kernel
	seed     uint64
	peers    []*toyNode
	trace    []toyRec
	windowed bool
	out      *[]toySend
}

func (tn *toyNode) HandleEvent(code uint32, a1, a2 uint64) {
	now := tn.k.Now()
	tn.trace = append(tn.trace, toyRec{at: now, node: tn.id, a1: a1})
	budget := a1 >> 32
	if budget == 0 {
		return
	}
	h := toyMix(tn.seed, uint64(tn.id), uint64(now), a1)
	child := (budget-1)<<32 | (h & 0xffffffff)
	tn.k.Post(now+Time(h%7), tn, 0, child, 0)
	h2 := toyMix(h, 1)
	dst := int(h2 % uint64(len(tn.peers)))
	at := now + toyWindow + 1 + Time((h2>>8)%5)
	remote := (budget - 1) << 32 // distinct uid space from local children
	if tn.windowed {
		*tn.out = append(*tn.out, toySend{at: at, src: tn.id, dst: dst, sent: now, a1: remote})
		return
	}
	tn.k.Post(at, tn.peers[dst], 0, remote, 0)
}

// runToy executes the toy program on one kernel and returns the per-node
// traces. Windowed, it runs the epoch engine's loop: windows of toyWindow
// cycles from the earliest pending event, with cross-node children posted
// at each boundary in (send time, source node, capture) order.
func runToy(seed uint64, nodes int, windowed bool) [][]toyRec {
	var k Kernel
	var out []toySend
	tns := make([]*toyNode, nodes)
	for i := range tns {
		tns[i] = &toyNode{id: i, k: &k, seed: seed, windowed: windowed, out: &out}
	}
	for i, tn := range tns {
		tn.peers = tns
		// Seed events: budget 3, one per node, staggered start times.
		k.Post(Time(toyMix(seed, uint64(i), 7)%5), tn, 0, 3<<32|uint64(i), 0)
	}
	if windowed {
		for {
			start, ok := k.Next()
			if !ok {
				break
			}
			end := start + toyWindow - 1
			k.RunWindow(end)
			slices.SortStableFunc(out, func(a, b toySend) int {
				return cmp.Or(cmp.Compare(a.sent, b.sent), cmp.Compare(a.src, b.src))
			})
			for _, s := range out {
				if s.at <= end {
					panic("cross-node send arrives inside its own window")
				}
				k.Post(s.at, tns[s.dst], 0, s.a1, 0)
			}
			out = out[:0]
		}
	} else {
		for k.Pending() > 0 {
			k.StepCycle()
		}
	}
	traces := make([][]toyRec, nodes)
	for i, tn := range tns {
		traces[i] = tn.trace
	}
	return traces
}

func flattenSorted(traces [][]toyRec) []toyRec {
	var all []toyRec
	for _, tr := range traces {
		all = append(all, tr...)
	}
	slices.SortFunc(all, func(a, b toyRec) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.node, b.node), cmp.Compare(a.a1, b.a1))
	})
	return all
}

// TestShardedKernelEquivalenceQuick drives random toy programs and checks
// the windowed-execution contract the epoch engine rests on: holding
// cross-node sends to the window boundary executes exactly the same
// (time, node, payload) event multiset as posting them directly (ordering
// within a cycle is the one degree of freedom the merge is allowed).
func TestShardedKernelEquivalenceQuick(t *testing.T) {
	f := func(seed uint64, nodesRaw uint8) bool {
		nodes := 2 + int(nodesRaw%7) // 2..8
		ref := flattenSorted(runToy(seed, nodes, false))
		win := flattenSorted(runToy(seed, nodes, true))
		if len(ref) != len(win) {
			t.Logf("seed %d nodes %d: event count %d vs reference %d", seed, nodes, len(win), len(ref))
			return false
		}
		for i := range ref {
			if ref[i] != win[i] {
				t.Logf("seed %d nodes %d: multiset diverges at %d: %+v vs %+v", seed, nodes, i, win[i], ref[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
