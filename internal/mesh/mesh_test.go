package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scalabletcc/internal/sim"
)

// fn adapts a plain function to a sim.Handler, so tests can observe a
// delivery with a closure.
type fn func()

func (f fn) HandleEvent(code uint32, a1, a2 uint64) { f() }

// send is SendEvent with a closure delivery.
func send(n *Network, src, dst, bytes int, class Class, f func()) {
	n.SendEvent(src, dst, bytes, class, fn(f), 0, 0, 0)
}

func testNet(nodes int, hop sim.Time) (*sim.Kernel, *Network) {
	k := &sim.Kernel{}
	cfg := DefaultConfig(nodes)
	cfg.HopLatency = hop
	return k, New(k, nodes, cfg)
}

func TestDimensions(t *testing.T) {
	cases := []struct{ nodes, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {5, 3, 2}, {9, 3, 3},
		{16, 4, 4}, {32, 6, 6}, {64, 8, 8},
	}
	for _, c := range cases {
		w, h := Dimensions(c.nodes)
		if w != c.w || h != c.h {
			t.Errorf("Dimensions(%d) = %dx%d, want %dx%d", c.nodes, w, h, c.w, c.h)
		}
		if w*h < c.nodes {
			t.Errorf("Dimensions(%d) too small", c.nodes)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	_, n := testNet(16, 3) // 4x4
	if n.Hops(0, 0) != 0 {
		t.Fatal("self hops != 0")
	}
	if got := n.Hops(0, 3); got != 3 {
		t.Fatalf("Hops(0,3) = %d, want 3", got)
	}
	if got := n.Hops(0, 15); got != 6 {
		t.Fatalf("Hops(0,15) = %d, want 6", got)
	}
	if n.Hops(5, 10) != n.Hops(10, 5) {
		t.Fatal("hops not symmetric")
	}
}

func TestLatencyScalesWithDistance(t *testing.T) {
	k, n := testNet(16, 3)
	var tNear, tFar sim.Time
	send(n, 0, 1, 8, ClassMiss, func() { tNear = k.Now() })
	send(n, 0, 15, 8, ClassMiss, func() { tFar = k.Now() })
	k.Run(0)
	if tFar <= tNear {
		t.Fatalf("far delivery (%d) not slower than near (%d)", tFar, tNear)
	}
	// 1 hop at 3 cycles/hop + 1 cycle serialization on arrival = 4.
	if tNear != 4 {
		t.Fatalf("near latency = %d, want 4", tNear)
	}
}

func TestLocalDelivery(t *testing.T) {
	k, n := testNet(4, 3)
	var at sim.Time
	send(n, 2, 2, 100, ClassCommit, func() { at = k.Now() })
	k.Run(0)
	if at != 1 {
		t.Fatalf("local delivery at %d, want localLatency=1", at)
	}
}

func TestContentionSerializes(t *testing.T) {
	k, n := testNet(4, 1)
	// Two large messages over the same link: the second must queue.
	var t1, t2 sim.Time
	send(n, 0, 1, 64, ClassMiss, func() { t1 = k.Now() })
	send(n, 0, 1, 64, ClassMiss, func() { t2 = k.Now() })
	k.Run(0)
	if t2 <= t1 {
		t.Fatalf("second message (%d) not delayed behind first (%d)", t2, t1)
	}
	// 64 bytes / 8 B-per-cycle = 8 cycles occupancy.
	if t2-t1 < 8 {
		t.Fatalf("queuing delay %d < serialization time 8", t2-t1)
	}
}

func TestFIFOPerPair(t *testing.T) {
	k, n := testNet(9, 2)
	var order []int
	for i := 0; i < 20; i++ {
		idx := i
		send(n, 0, 8, 16+idx%3*8, ClassCommit, func() { order = append(order, idx) })
	}
	k.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("per-pair delivery reordered: %v", order)
		}
	}
}

func TestJitterInjection(t *testing.T) {
	k := &sim.Kernel{}
	cfg := DefaultConfig(4)
	delay := sim.Time(1000)
	cfg.Jitter = func(src, dst, bytes int) sim.Time {
		d := delay
		delay = 0 // only the first message is delayed
		return d
	}
	n := New(k, 4, cfg)
	var order []int
	send(n, 0, 3, 8, ClassMiss, func() { order = append(order, 0) })
	send(n, 0, 3, 8, ClassMiss, func() { order = append(order, 1) })
	k.Run(0)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("jitter did not reorder: %v", order)
	}
}

// runSeededTraffic drives a fixed pseudo-random traffic pattern through a
// fresh network built by mk and returns the arrival time of every message in
// send order. The traffic generator is seeded explicitly so that two calls
// with the same seed issue byte-identical send sequences.
func runSeededTraffic(mk func(k *sim.Kernel) *Network, seed int64, msgs int) []sim.Time {
	k := &sim.Kernel{}
	n := mk(k)
	r := rand.New(rand.NewSource(seed))
	arrivals := make([]sim.Time, msgs)
	for i := 0; i < msgs; i++ {
		i := i
		src := r.Intn(16)
		dst := r.Intn(16)
		bytes := 8 + r.Intn(64)
		send(n, src, dst, bytes, ClassMiss, func() { arrivals[i] = k.Now() })
		// Interleave sends with partial drains so queued link state at
		// send time varies, exercising contention paths too.
		if r.Intn(4) == 0 {
			k.RunUntil(k.Now() + sim.Time(r.Intn(20)))
		}
	}
	k.Run(0)
	return arrivals
}

// TestDeterminismTorusAndJitter checks that two identically-seeded runs
// produce identical arrival times in torus mode, in jitter mode, and with
// both enabled — closing the grid-only coverage gap. Any hidden source of
// nondeterminism (map iteration, shared RNG state, allocator-dependent
// ordering) would show up as diverging arrival vectors.
func TestDeterminismTorusAndJitter(t *testing.T) {
	cases := []struct {
		name   string
		torus  bool
		jitter bool
	}{
		{"torus", true, false},
		{"jitter", false, true},
		{"torus+jitter", true, true},
	}
	const seed = 42
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mk := func(k *sim.Kernel) *Network {
				cfg := DefaultConfig(16)
				cfg.Torus = c.torus
				if c.jitter {
					// Jitter draws from its own seeded stream, so both
					// runs see the same per-message perturbations.
					jr := rand.New(rand.NewSource(seed + 1))
					cfg.Jitter = func(src, dst, bytes int) sim.Time {
						return sim.Time(jr.Intn(7))
					}
				}
				return New(k, 16, cfg)
			}
			a := runSeededTraffic(mk, seed, 300)
			b := runSeededTraffic(mk, seed, 300)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("run divergence at message %d: %d vs %d", i, a[i], b[i])
				}
			}
			// Sanity: the runs actually delivered everything.
			for i, at := range a {
				if at == 0 {
					t.Fatalf("message %d never delivered", i)
				}
			}
		})
	}
}

func TestTrafficAccounting(t *testing.T) {
	k, n := testNet(4, 1)
	send(n, 0, 1, 100, ClassMiss, func() {})
	send(n, 1, 2, 50, ClassWriteBack, func() {})
	send(n, 2, 0, 25, ClassCommit, func() {})
	for dst := 0; dst < 3; dst++ {
		n.SendEvent(3, dst, 10, ClassCommit, &countHandler{}, 0, uint64(dst), 0)
	}
	k.Run(0)
	s := n.Stats()
	if s.BytesByClass[ClassMiss] != 100 {
		t.Fatalf("miss bytes = %d", s.BytesByClass[ClassMiss])
	}
	if s.BytesByClass[ClassWriteBack] != 50 {
		t.Fatalf("wb bytes = %d", s.BytesByClass[ClassWriteBack])
	}
	if s.BytesByClass[ClassCommit] != 25+30 {
		t.Fatalf("commit bytes = %d", s.BytesByClass[ClassCommit])
	}
	if s.TotalBytes() != 205 {
		t.Fatalf("total = %d", s.TotalBytes())
	}
	if s.PerNodeBytes[3] != 30 {
		t.Fatalf("node 3 produced %d bytes, want 30", s.PerNodeBytes[3])
	}
	if s.MsgsByClass[ClassCommit] != 4 {
		t.Fatalf("commit msgs = %d", s.MsgsByClass[ClassCommit])
	}
}

func TestClassNames(t *testing.T) {
	names := map[Class]string{
		ClassCommit: "CommitOverhead", ClassMiss: "Miss",
		ClassWriteBack: "WriteBack", ClassShared: "Shared",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class %d = %q, want %q", c, c.String(), want)
		}
	}
}

// Property: every message is eventually delivered, exactly once, and
// arrival time is at least hops*hopLatency.
func TestDeliveryProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		k, n := testNet(16, 2)
		delivered := 0
		type exp struct {
			src, dst int
			sent     sim.Time
		}
		var exps []exp
		for _, p := range pairs {
			src, dst := int(p%16), int(p/16%16)
			e := exp{src: src, dst: dst, sent: k.Now()}
			exps = append(exps, e)
			minLat := sim.Time(n.Hops(src, dst))*2 + 1
			if src == dst {
				minLat = 1
			}
			lo := k.Now() + minLat
			send(n, src, dst, 8, ClassMiss, func() {
				delivered++
				if k.Now() < lo {
					panic("delivered too early")
				}
			})
		}
		k.Run(0)
		return delivered == len(pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHopLatencySweepMonotonic(t *testing.T) {
	// Figure 8's knob: raising cycles/hop must not make delivery faster.
	var prev sim.Time
	for _, hop := range []sim.Time{1, 2, 4, 8} {
		k, n := testNet(16, hop)
		var at sim.Time
		send(n, 0, 15, 8, ClassMiss, func() { at = k.Now() })
		k.Run(0)
		if at < prev {
			t.Fatalf("hop=%d delivered at %d, faster than previous %d", hop, at, prev)
		}
		prev = at
	}
}

func TestTorusHalvesWorstCase(t *testing.T) {
	k := &sim.Kernel{}
	cfg := DefaultConfig(16) // 4x4
	cfg.Torus = true
	n := New(k, 16, cfg)
	// Corner to corner: 6 hops on a grid, 2 on a 4x4 torus (wrap both dims).
	if got := n.Hops(0, 15); got != 2 {
		t.Fatalf("torus Hops(0,15) = %d, want 2", got)
	}
	if got := n.Hops(0, 3); got != 1 {
		t.Fatalf("torus Hops(0,3) = %d, want 1 (wraparound)", got)
	}
	var at sim.Time
	send(n, 0, 15, 8, ClassMiss, func() { at = k.Now() })
	k.Run(0)
	// 2 hops * 3 cycles + 1 cycle serialization = 7.
	if at != 7 {
		t.Fatalf("torus delivery at %d, want 7", at)
	}
}

func TestTorusMatchesGridInside(t *testing.T) {
	k := &sim.Kernel{}
	cfg := DefaultConfig(16)
	cfg.Torus = true
	n := New(k, 16, cfg)
	g := New(&sim.Kernel{}, 16, DefaultConfig(16))
	// For adjacent nodes the torus takes the same direct route.
	if n.Hops(5, 6) != g.Hops(5, 6) || n.Hops(5, 9) != g.Hops(5, 9) {
		t.Fatal("torus disagrees with grid on interior routes")
	}
}

// TestTorusEndToEnd: the knob must work through a full protocol run and not
// be slower than the plain grid on average.
func TestTorusDeliveryProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		k := &sim.Kernel{}
		cfg := DefaultConfig(16)
		cfg.Torus = true
		n := New(k, 16, cfg)
		delivered := 0
		for _, p := range pairs {
			src, dst := int(p%16), int(p/16%16)
			send(n, src, dst, 8, ClassMiss, func() { delivered++ })
		}
		k.Run(0)
		return delivered == len(pairs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// countHandler is a typed-delivery sink for the zero-alloc checks.
type countHandler struct{ n int }

func (c *countHandler) HandleEvent(code uint32, a1, a2 uint64) { c.n++ }

// arrivalLog records each typed delivery's time under its a1 key and the
// order keys arrived in.
type arrivalLog struct {
	k     *sim.Kernel
	at    map[uint64]sim.Time
	order []uint64
}

func (l *arrivalLog) HandleEvent(code uint32, a1, a2 uint64) {
	l.at[a1] = l.k.Now()
	l.order = append(l.order, a1)
}

// TestSendEventMatchesRouteAt pins typed delivery to the routing model: each
// message arrives exactly at the time RouteAt computes for the same send
// sequence on an identical network.
func TestSendEventMatchesRouteAt(t *testing.T) {
	script := []struct{ src, dst, bytes int }{
		{0, 15, 8}, {3, 3, 64}, {12, 1, 40}, {0, 15, 8}, {7, 8, 16},
	}
	ref := New(&sim.Kernel{}, 16, DefaultConfig(16))
	k := &sim.Kernel{}
	n := New(k, 16, DefaultConfig(16))
	log := &arrivalLog{k: k, at: map[uint64]sim.Time{}}
	for i, m := range script {
		n.SendEvent(m.src, m.dst, m.bytes, ClassMiss, log, 0, uint64(i), 0)
	}
	k.Run(0)
	if len(log.order) != len(script) {
		t.Fatalf("delivered %d, want %d", len(log.order), len(script))
	}
	for i, m := range script {
		if want := ref.RouteAt(0, m.src, m.dst, m.bytes, ClassMiss); log.at[uint64(i)] != want {
			t.Fatalf("delivery %d at %d, RouteAt says %d", i, log.at[uint64(i)], want)
		}
	}
}

// TestMeshSteadyStateZeroAlloc pins the zero-allocation guarantee of typed
// mesh delivery: routing, link accounting, and kernel scheduling must not
// allocate once warm.
func TestMeshSteadyStateZeroAlloc(t *testing.T) {
	k := &sim.Kernel{}
	n := New(k, 16, DefaultConfig(16))
	h := &countHandler{}
	pump := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for src := 0; src < 16; src++ {
				n.SendEvent(src, (src+5)%16, 40, ClassMiss, h, 0, 0, 0)
			}
			k.Run(0)
		}
	}
	pump(4) // warm the queue's backing array

	allocs := testing.AllocsPerRun(10, func() { pump(16) })
	if allocs != 0 {
		t.Fatalf("typed mesh delivery allocated %v allocs/run, want 0", allocs)
	}
}

// BenchmarkMeshSendEvent measures one typed message through the mesh,
// including routing, link contention accounting, and kernel dispatch.
func BenchmarkMeshSendEvent(b *testing.B) {
	k := &sim.Kernel{}
	n := New(k, 16, DefaultConfig(16))
	h := &countHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendEvent(i%16, (i+7)%16, 40, ClassMiss, h, 0, 0, 0)
		k.Run(0)
	}
}
