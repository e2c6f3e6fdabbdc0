package fuzz

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"scalabletcc/internal/sim"
	"scalabletcc/internal/tape"
)

// Every generated case must be constructible.
func TestGenValid(t *testing.T) {
	rng := sim.NewRNG(42)
	for i := 0; i < 300; i++ {
		c := Gen(rng)
		if err := c.Validate(); err != nil {
			t.Fatalf("draw %d invalid: %v\n%+v", i, err, c)
		}
	}
}

// The generator reaches the adversarial corners the campaign exists for.
func TestGenCoversExtremes(t *testing.T) {
	rng := sim.NewRNG(7)
	var hotSingle, chain, tinyL2, singleHome, manyProcs bool
	for i := 0; i < 500; i++ {
		c := Gen(rng)
		hotSingle = hotSingle || c.HotWords == 1
		chain = chain || ((c.MeshW == 1 || c.MeshH == 1) && c.Procs > 2)
		tinyL2 = tinyL2 || c.L2Bytes <= 2048
		singleHome = singleHome || c.SingleHome
		manyProcs = manyProcs || c.Procs >= 32
	}
	if !hotSingle || !chain || !tinyL2 || !singleHome || !manyProcs {
		t.Fatalf("coverage holes: hotSingle=%v chain=%v tinyL2=%v singleHome=%v manyProcs=%v",
			hotSingle, chain, tinyL2, singleHome, manyProcs)
	}
}

// The default rotation reaches every registered protocol, and a restricted
// rotation stays inside its menu.
func TestGenRotatesProtocols(t *testing.T) {
	rng := sim.NewRNG(13)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[Gen(rng).Protocol] = true
	}
	for _, want := range []string{"tcc", "baseline", "tl2", "eager"} {
		if !seen[want] {
			t.Errorf("default rotation never drew %q (saw %v)", want, seen)
		}
	}
	for i := 0; i < 50; i++ {
		if c := Gen(rng, "tl2"); c.Protocol != "tl2" {
			t.Fatalf("restricted rotation drew %q", c.Protocol)
		}
	}
}

// Every rival protocol survives the same adversarial case under the
// end-of-run oracles (serializability, final memory).
func TestRunCleanAcrossProtocols(t *testing.T) {
	for _, proto := range []string{"baseline", "tl2", "eager"} {
		t.Run(proto, func(t *testing.T) {
			c := smallCase(17)
			c.Protocol = proto
			if err := Run(context.Background(), &c); err != nil {
				t.Fatalf("[%s] %v", Class(err), err)
			}
		})
	}
}

// Case validation polices the protocol field: unknown names are rejected
// with the registry listed, and fault injection stays tcc-only.
func TestValidateProtocolField(t *testing.T) {
	c := smallCase(19)
	c.Protocol = "occ"
	if err := c.Validate(); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	c = smallCase(19)
	c.Protocol = "tl2"
	c.Fault = FaultSkipVector
	if err := c.Validate(); err == nil {
		t.Fatal("fault injection on a rival protocol accepted")
	}
}

// smallCase is a quick-running adversarial case used across the tests.
func smallCase(seed uint64) Case {
	return Case{
		Name: "small", Seed: seed,
		Procs: 4, MeshW: 2, MeshH: 2, HopLatency: 3,
		L1Bytes: 512, L2Bytes: 2048, StarveRetainAfter: 8,
		TxPerProc: 6, OpsPerTx: 8, Lines: 2, HotWords: 4,
		LoadPct: 40, StorePct: 40, MaxCompute: 10, SingleHome: true,
	}
}

// A correct protocol survives adversarial cases: tiny caches, single-word
// contention, degenerate meshes.
func TestRunCleanAdversarialCases(t *testing.T) {
	cases := []Case{
		smallCase(1),
		{Name: "hot-word-chain", Seed: 3, Procs: 5, MeshW: 1, MeshH: 5, HopLatency: 5,
			L1Bytes: 512, L2Bytes: 1024, TxPerProc: 5, OpsPerTx: 6, Lines: 1, HotWords: 1,
			LoadPct: 30, StorePct: 60, MaxCompute: 4, SingleHome: true, StarveRetainAfter: 2},
		{Name: "eviction-storm", Seed: 9, Procs: 2, MeshW: 2, MeshH: 1, HopLatency: 1,
			L1Bytes: 256, L2Bytes: 256, TxPerProc: 4, OpsPerTx: 16, Lines: 16,
			LoadPct: 50, StorePct: 40, MaxCompute: 2, StarveRetainAfter: 8},
		{Name: "wt-line-gran", Seed: 5, Procs: 3, MeshW: 2, MeshH: 2, HopLatency: 2,
			L1Bytes: 1024, L2Bytes: 4096, TxPerProc: 4, OpsPerTx: 6, Lines: 4,
			WriteThrough: true, LineGranularity: true, RepeatedProbes: true,
			LoadPct: 40, StorePct: 40, MaxCompute: 8, StarveRetainAfter: 4},
		{Name: "uniproc", Seed: 2, Procs: 1, MeshW: 1, MeshH: 1, HopLatency: 3,
			L1Bytes: 512, L2Bytes: 512, TxPerProc: 8, OpsPerTx: 10, Lines: 8,
			LoadPct: 45, StorePct: 45, MaxCompute: 6, StarveRetainAfter: 8},
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := Run(context.Background(), &c); err != nil {
				t.Fatalf("[%s] %v", Class(err), err)
			}
		})
	}
}

// A case whose deadline passes is class "hang", on every protocol.
func TestCaseDeadlineIsHang(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	for _, proto := range []string{"tcc", "tl2"} {
		c := smallCase(17)
		c.Protocol = proto
		if err := Run(ctx, &c); Class(err) != "hang" {
			t.Fatalf("%s: a case past its deadline: [%s] %v, want class hang", proto, Class(err), err)
		}
	}
}

// A campaign whose context is done stops with the context's error instead
// of spending its time budget.
func TestCampaignStopsWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Campaign(ctx, Options{Duration: time.Minute, Seed: 1, Jobs: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("canceled campaign took %v", d)
	}
}

// Run is deterministic: identical cases produce identical outcomes.
func TestRunDeterministic(t *testing.T) {
	c1, c2 := smallCase(11), smallCase(11)
	e1, e2 := Run(context.Background(), &c1), Run(context.Background(), &c2)
	s1, s2 := "", ""
	if e1 != nil {
		s1 = e1.Error()
	}
	if e2 != nil {
		s2 = e2.Error()
	}
	if s1 != s2 {
		t.Fatalf("outcomes differ:\n%q\n%q", s1, s2)
	}
}

// The acceptance-criteria loop in one test: a deliberately injected protocol
// fault is (1) caught by the continuous auditor mid-run, (2) shrunk while
// preserving the failure class, and (3) replayed deterministically from its
// tape.
func TestInjectedFaultCaughtShrunkReplayed(t *testing.T) {
	c := smallCase(21)
	c.Fault = FaultSkipVector
	c.FaultCycle = 2000
	c.FaultDir = 0

	// (1) Caught mid-run with the expected class.
	const wantClass = "audit:skip-vector-bounds"
	err := Run(context.Background(), &c)
	if got := Class(err); got != wantClass {
		t.Fatalf("fault class %q (err %v), want %q", got, err, wantClass)
	}

	// (2) Shrinking preserves the class and only removes structure.
	sr := Shrink(c, wantClass, 80, nil)
	if got := Class(Run(context.Background(), &sr.Case)); got != wantClass {
		t.Fatalf("shrunk case fails with %q, want %q", got, wantClass)
	}
	if sr.Case.Procs > c.Procs || sr.Case.TxPerProc > c.TxPerProc {
		t.Fatalf("shrink grew the case: %+v", sr.Case)
	}
	if sr.Case.Fault != FaultSkipVector {
		t.Fatal("shrink dropped the fault")
	}

	// (3) Tape round trip replays deterministically.
	f := Failure{Class: wantClass, Detail: err.Error(), Original: c, Shrunk: sr.Case}
	dir := t.TempDir()
	path, werr := writeTape(dir, &f)
	if werr != nil {
		t.Fatal(werr)
	}
	for i := 0; i < 2; i++ {
		if rerr := ReplayTape(path); rerr != nil {
			t.Fatalf("replay %d: %v", i, rerr)
		}
	}

	// The tape is a valid, self-describing envelope.
	r, lerr := tape.LoadRepro(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if r.Expect != wantClass || r.Kind != "fuzz-case" {
		t.Fatalf("tape metadata wrong: %+v", r)
	}
}

// A tape whose expectation no longer matches must fail replay loudly.
func TestReplayTapeDetectsClassDrift(t *testing.T) {
	c := smallCase(31) // runs clean
	r, err := tape.NewRepro("fuzz-case", c.Name, c)
	if err != nil {
		t.Fatal(err)
	}
	r.Expect = "audit:skip-vector-bounds" // wrong: the case is clean
	path := filepath.Join(t.TempDir(), "drift.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := ReplayTape(path); err == nil {
		t.Fatal("class drift not detected")
	}
}

// Shrinking a clean-class expectation against an already-minimal case stays
// within budget and returns a valid case.
func TestShrinkRespectsBudget(t *testing.T) {
	c := smallCase(41)
	c.Fault = FaultSkipVector
	c.FaultCycle = 2000
	const budget = 10
	sr := Shrink(c, "audit:skip-vector-bounds", budget, nil)
	if sr.Runs > budget {
		t.Fatalf("shrink used %d runs, budget %d", sr.Runs, budget)
	}
	if err := sr.Case.Validate(); err != nil {
		t.Fatalf("shrunk case invalid: %v", err)
	}
}

// End-to-end campaign over a fault-free protocol: a short budget must
// complete with zero failures and no tapes.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke runs full simulations")
	}
	dir := t.TempDir()
	rep, err := Campaign(context.Background(), Options{
		Duration:    3 * time.Second,
		Seed:        1,
		Jobs:        2,
		CaseTimeout: 90 * time.Second,
		OutDir:      dir,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cases == 0 {
		t.Fatal("campaign ran no cases")
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("campaign found %d failures on a correct protocol: %+v", len(rep.Failures), rep.Failures)
	}
	if rep.Clean != rep.Cases {
		t.Fatalf("%d cases, only %d clean, yet no failures reported", rep.Cases, rep.Clean)
	}
}
