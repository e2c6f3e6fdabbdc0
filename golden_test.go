package scalabletcc

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"scalabletcc/tcc"
)

// The golden determinism fixture pins the simulator's observable behaviour —
// cycle counts, aggregate statistics, and a hash over the full typed event
// stream — for a set of canonical small runs. Any refactor of the timed
// stack (kernel, mesh, core, baseline) must leave every field byte-identical:
// regenerating with -update and seeing a diff means simulated behaviour
// moved, which is a bug unless the protocol itself intentionally changed.
//
// Regenerate with:
//
//	go test -run TestGoldenFixture -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata golden fixtures")

const goldenPath = "testdata/golden.json"

// goldenCell is the recorded fingerprint of one canonical run.
type goldenCell struct {
	Name       string  `json:"name"`
	System     string  `json:"system"` // "scalable" or "baseline"
	App        string  `json:"app"`
	Procs      int     `json:"procs"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Cycles     uint64  `json:"cycles"`
	Commits    uint64  `json:"commits"`
	Violations uint64  `json:"violations"`
	Instr      uint64  `json:"instr"`
	Bytes      uint64  `json:"bytes"` // total mesh (or bus) bytes
	Events     uint64  `json:"events"`
	EventHash  string  `json:"event_hash"` // FNV-1a 64 over the rendered stream
}

// eventHasher folds every protocol event into an order-sensitive FNV-1a
// digest. Every Event field participates, so any change in event content,
// count, or order changes the hash.
type eventHasher struct {
	n uint64
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
}

func newEventHasher() *eventHasher { return &eventHasher{h: fnv.New64a()} }

func (eh *eventHasher) observer() tcc.Observer {
	return tcc.FuncObserver(func(e tcc.Event) {
		eh.n++
		fmt.Fprintf(eh.h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%v|%s\n",
			e.Cycle, e.Kind, e.Node, e.Peer, e.TID, e.TID2, e.Addr, e.Words,
			e.SR, e.SM, e.Arg, e.Data, e.Set)
	})
}

func (eh *eventHasher) sum() string { return fmt.Sprintf("%016x", eh.h.Sum64()) }

// runGoldenCell executes one canonical configuration and fills in the
// measured half of the cell.
func runGoldenCell(t *testing.T, c goldenCell) goldenCell {
	t.Helper()
	prog := tcc.MustProfile(c.App).Scale(c.Scale).Build(c.Procs, c.Seed)
	eh := newEventHasher()
	switch c.System {
	case "scalable":
		sys, err := tcc.NewSystem(tcc.DefaultConfig(c.Procs), prog)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sys.Observe(eh.observer())
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		c.Cycles = uint64(res.Cycles)
		c.Commits = res.Commits
		c.Violations = res.Violations
		c.Instr = res.Instr
		c.Bytes = res.Traffic.TotalBytes()
	case "baseline":
		sys, err := tcc.NewSystemFor("baseline", tcc.DefaultConfig(c.Procs), prog)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sys.Observe(eh.observer())
		pres, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		sum := pres.Summary
		c.Cycles = sum.Cycles
		c.Commits = sum.Commits
		c.Violations = sum.Violations
		c.Instr = sum.Instructions
		c.Bytes = pres.Baseline.BusBytes
	default:
		t.Fatalf("%s: unknown system %q", c.Name, c.System)
	}
	c.Events = eh.n
	c.EventHash = eh.sum()
	return c
}

// goldenConfigs are the canonical runs: a default-config scalable run with
// real locality (barnes), a commit-bound scalable run that stresses the
// TID/skip/probe/mark machinery, and a baseline (bus) run covering the
// second timed system.
func goldenConfigs() []goldenCell {
	return []goldenCell{
		{Name: "scalable-barnes-8p", System: "scalable", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1},
		{Name: "scalable-commitbound-4p", System: "scalable", App: "commitbound", Procs: 4, Scale: 0.1, Seed: 2},
		{Name: "baseline-commitbound-4p", System: "baseline", App: "commitbound", Procs: 4, Scale: 0.1, Seed: 2},
	}
}

func TestGoldenFixture(t *testing.T) {
	var got []goldenCell
	for _, c := range goldenConfigs() {
		got = append(got, runGoldenCell(t, c))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cells, run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("golden cell %s diverged:\n  want %+v\n  got  %+v", want[i].Name, want[i], got[i])
		}
	}
}

// TestGoldenReplayStable runs the first golden cell twice in-process and
// requires identical event hashes: the determinism the fixture pins must not
// depend on process-lifetime state (map iteration, pool reuse, timers).
func TestGoldenReplayStable(t *testing.T) {
	c := goldenConfigs()[0]
	a := runGoldenCell(t, c)
	b := runGoldenCell(t, c)
	if a.EventHash != b.EventHash || a.Cycles != b.Cycles {
		t.Fatalf("same-seed replay diverged: %+v vs %+v", a, b)
	}
}
