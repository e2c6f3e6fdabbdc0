package workload

import (
	"testing"
	"testing/quick"
	"unsafe"

	"scalabletcc/internal/mem"
)

func TestTxDeterminism(t *testing.T) {
	p := Barnes().Build(8, 42)
	q := Barnes().Build(8, 42)
	for proc := 0; proc < 8; proc += 3 {
		for idx := 0; idx < 3; idx++ {
			a := p.Tx(proc, 0, idx)
			b := q.Tx(proc, 0, idx)
			if len(a.Ops) != len(b.Ops) {
				t.Fatalf("op counts differ for proc %d tx %d", proc, idx)
			}
			for i := range a.Ops {
				if a.Ops[i] != b.Ops[i] {
					t.Fatalf("op %d differs", i)
				}
			}
		}
	}
}

func TestTxSeedSensitivity(t *testing.T) {
	a := Barnes().Build(4, 1).Tx(0, 0, 0)
	b := Barnes().Build(4, 2).Tx(0, 0, 0)
	same := len(a.Ops) == len(b.Ops)
	if same {
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical transactions")
	}
}

func TestInstructionsCount(t *testing.T) {
	tx := Tx{Ops: []Op{
		{Kind: Compute, Cycles: 100},
		{Kind: Load, Addr: 4},
		{Kind: Store, Addr: 8},
		{Kind: Compute, Cycles: 50},
	}}
	if got := tx.Instructions(); got != 152 {
		t.Fatalf("Instructions = %d, want 152", got)
	}
}

func TestTxSizeCalibration(t *testing.T) {
	// Generated transactions must track the profile's fingerprint: mean
	// instruction count within 40% of TxInstr, and loads/stores roughly at
	// ReadWords/WriteWords.
	for _, prof := range Profiles() {
		prog := prof.Build(4, 7)
		var instr, loads, stores, n uint64
		for idx := 0; idx < 20; idx++ {
			tx := prog.Tx(1, 0, idx%prog.TxCount(1, 0))
			instr += tx.Instructions()
			for _, op := range tx.Ops {
				switch op.Kind {
				case Load:
					loads++
				case Store:
					stores++
				}
			}
			n++
		}
		meanInstr := float64(instr) / float64(n)
		if meanInstr < 0.5*float64(prof.TxInstr) || meanInstr > 1.6*float64(prof.TxInstr) {
			t.Errorf("%s: mean tx size %.0f vs profile %d", prof.Name, meanInstr, prof.TxInstr)
		}
		meanWr := float64(stores) / float64(n)
		if meanWr < 0.4*float64(prof.WriteWords) || meanWr > 2.0*float64(prof.WriteWords) {
			t.Errorf("%s: mean write words %.0f vs profile %d", prof.Name, meanWr, prof.WriteWords)
		}
		meanRd := float64(loads) / float64(n)
		if meanRd < 0.4*float64(prof.ReadWords) || meanRd > 2.0*float64(prof.ReadWords) {
			t.Errorf("%s: mean read words %.0f vs profile %d", prof.Name, meanRd, prof.ReadWords)
		}
	}
}

func TestTotalWorkConservedAcrossProcs(t *testing.T) {
	// Strong scaling: the total transaction count must be independent of the
	// processor count (within rounding), so Figure 7 speedups are meaningful.
	prof := Equake()
	count := func(procs int) int {
		prog := prof.Build(procs, 3)
		total := 0
		for pr := 0; pr < procs; pr++ {
			for ph := 0; ph < prog.Phases(); ph++ {
				total += prog.TxCount(pr, ph)
			}
		}
		return total
	}
	base := count(1)
	for _, procs := range []int{2, 8, 32} {
		c := count(procs)
		if c < base*8/10 || c > base*12/10 {
			t.Errorf("total tx at %d procs = %d, base %d", procs, c, base)
		}
	}
}

func TestAddressesWordAligned(t *testing.T) {
	prog := Radix().Build(8, 5)
	tx := prog.Tx(3, 0, 0)
	for _, op := range tx.Ops {
		if op.Kind == Compute {
			continue
		}
		if op.Addr%4 != 0 {
			t.Fatalf("unaligned address %#x", op.Addr)
		}
	}
}

func TestRegionsDisjoint(t *testing.T) {
	// Private regions of different processors must never overlap, and
	// shared/hot regions must be disjoint from private ones.
	prog := Volrend().Build(16, 9).(*program)
	g := mem.DefaultGeometry()
	for proc := 0; proc < 16; proc++ {
		hi := prog.privateWord(proc, prog.privWords()-1)
		if proc+1 < 16 {
			nextLo := prog.privateWord(proc+1, 0)
			if hi >= nextLo {
				t.Fatalf("private regions of %d and %d overlap", proc, proc+1)
			}
		}
		if g.Page(hi) >= g.Page(prog.sharedWord(0, 0)) {
			t.Fatal("private region reaches shared region")
		}
	}
	if prog.sharedWord(15, prog.segWords()-1) >= prog.hotWord(0) {
		t.Fatal("shared region reaches hot region")
	}
}

func TestPreMapHoming(t *testing.T) {
	prof := Barnes()
	prog := prof.Build(8, 1).(*program)
	m := mem.NewMap(mem.DefaultGeometry(), 8)
	prog.PreMap(m)
	// Private pages homed at their owner.
	for proc := 0; proc < 8; proc++ {
		a := prog.privateWord(proc, 10)
		if h, ok := m.HomeIfMapped(a); !ok || h != proc {
			t.Fatalf("private page of proc %d homed at %d (mapped=%v)", proc, h, ok)
		}
	}
	// Shared segments homed round-robin.
	for seg := 0; seg < 8; seg++ {
		a := prog.sharedWord(seg, 0)
		if h, ok := m.HomeIfMapped(a); !ok || h != seg {
			t.Fatalf("shared segment %d homed at %d", seg, h)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"barnes", "swim", "SPECjbb2000", "hotspot"} {
		p, ok := ByName(want)
		if !ok || p.Name != want {
			t.Errorf("ByName(%q) failed", want)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown profile")
	}
}

func TestScale(t *testing.T) {
	p := Swim()
	s := p.Scale(0.5)
	if s.TotalTx != p.TotalTx/2 {
		t.Fatalf("Scale(0.5): %d -> %d", p.TotalTx, s.TotalTx)
	}
	tiny := p.Scale(0.00001)
	if tiny.TotalTx < tiny.NumPhases {
		t.Fatal("Scale floor violated")
	}
}

func TestProfilesComplete(t *testing.T) {
	if len(Profiles()) != 11 {
		t.Fatalf("expected the paper's 11 applications, got %d", len(Profiles()))
	}
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.TxInstr <= 0 || p.WriteWords <= 0 || p.TotalTx <= 0 {
			t.Fatalf("profile %q has empty fingerprint", p.Name)
		}
	}
}

func TestOpsPerWordWrittenSpread(t *testing.T) {
	// The paper: the ratio "ranges from ~10 to 200" with SPECjbb highest.
	ratio := func(p Profile) float64 { return float64(p.TxInstr) / float64(p.WriteWords) }
	var lo, hi float64 = 1e9, 0
	for _, p := range Profiles() {
		r := ratio(p)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo > 15 || hi < 100 {
		t.Fatalf("ops/word spread [%.0f, %.0f] does not cover the paper's range", lo, hi)
	}
	if ratio(SPECjbb()) < ratio(Volrend()) {
		t.Fatal("SPECjbb must have a higher ops/word ratio than volrend")
	}
}

// Property: every generated transaction has at least one op and
// non-negative compute budgets, for any (proc, phase, idx) in range.
func TestTxWellFormedProperty(t *testing.T) {
	prog := WaterSpatial().Build(8, 11)
	f := func(rawProc, rawIdx uint8) bool {
		proc := int(rawProc) % 8
		idx := int(rawIdx) % prog.TxCount(proc, 0)
		tx := prog.Tx(proc, 0, idx)
		if len(tx.Ops) == 0 {
			return false
		}
		for _, op := range tx.Ops {
			if op.Kind == Compute && op.Cycles == 0 {
				return false
			}
		}
		return tx.Instructions() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Tx sizes its scratch once from the drawn counts, so regenerating a
// transaction whose size the scratch has already held allocates nothing.
func TestTxRegenerateAllocs(t *testing.T) {
	p := Swim().Build(4, 3)
	p.Tx(1, 0, 2) // warm proc 1's scratch
	allocs := testing.AllocsPerRun(20, func() { p.Tx(1, 0, 2) })
	if allocs != 0 {
		t.Fatalf("regenerating a warmed Tx allocates %.1f times, want 0", allocs)
	}
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Fatalf("Op is %d bytes, want 16", n)
	}
}
