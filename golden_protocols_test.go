package scalabletcc

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalabletcc/tcc"
)

// The rival-protocol golden fixture pins the TL2 STM and eager HTM the same
// way testdata/golden.json pins the scalable and baseline machines: cycle
// counts, aggregate statistics, and a hash over the full typed event stream.
// These cells run through the unified registry constructor, so they also pin
// the Config translation NewSystemFor performs for each model. The knob
// cells run every protocol on one non-default machine, so a knob that stops
// reaching a model (or starts reaching it) moves that model's row.
//
// Regenerate with:
//
//	go test -run TestGoldenProtocolFixture -update .
const goldenProtocolsPath = "testdata/golden_protocols.json"

// goldenProtoCell is the recorded fingerprint of one registry-protocol run.
type goldenProtoCell struct {
	Name     string  `json:"name"`
	Protocol string  `json:"protocol"`
	App      string  `json:"app"`
	Procs    int     `json:"procs"`
	Scale    float64 `json:"scale"`
	Seed     uint64  `json:"seed"`
	// Machine overrides Table 2 knobs; nil runs the default machine.
	Machine    *tcc.MachineSpec `json:"machine,omitempty"`
	Cycles     uint64           `json:"cycles"`
	Commits    uint64           `json:"commits"`
	Violations uint64           `json:"violations"`
	Instr      uint64           `json:"instr"`
	Bytes      uint64           `json:"bytes"` // total mesh bytes (bus bytes on baseline)
	Events     uint64           `json:"events"`
	EventHash  string           `json:"event_hash"` // FNV-1a 64 over the rendered stream
}

// runGoldenProtoCell executes one canonical run through NewSystemFor and
// fills in the measured half of the cell.
func runGoldenProtoCell(t *testing.T, c goldenProtoCell) goldenProtoCell {
	t.Helper()
	cfg := tcc.DefaultConfig(c.Procs)
	cfg.Seed = c.Seed
	if m := c.Machine; m != nil {
		cfg.LineSize = m.LineSize
		cfg.L1Size, cfg.L1Ways = m.L1Size, m.L1Ways
		cfg.L2Size, cfg.L2Ways = m.L2Size, m.L2Ways
		cfg.HopLatency = m.HopLatency
		cfg.LinkBytesPerCycle = m.LinkBytesPerCycle
		cfg.MemLatency = m.MemLatency
		cfg.DirLatency = m.DirLatency
		cfg.Torus = m.Torus
	}
	prog := tcc.MustProfile(c.App).Scale(c.Scale).Build(c.Procs, c.Seed)
	sys, err := tcc.NewSystemFor(c.Protocol, cfg, prog)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	eh := newEventHasher()
	sys.Observe(eh.observer())
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	c.Cycles = res.Summary.Cycles
	c.Commits = res.Summary.Commits
	c.Violations = res.Summary.Violations
	c.Instr = res.Summary.Instructions
	c.Bytes = protoBytes(t, c, res)
	c.Events = eh.n
	c.EventHash = eh.sum()
	return c
}

// knobMachine sets every machine knob away from its Table 2 default: the
// line size, both cache shapes, and the mesh and memory timing.
var knobMachine = &tcc.MachineSpec{
	LineSize: 64,
	L1Size:   16 << 10, L1Ways: 2,
	L2Size: 256 << 10, L2Ways: 4,
	HopLatency: 5, LinkBytesPerCycle: 4,
	MemLatency: 150, DirLatency: 20,
	Torus: true,
}

// protoBytes is the traffic a cell pins: mesh bytes, or bus bytes on the
// baseline.
func protoBytes(t *testing.T, c goldenProtoCell, res *tcc.ProtocolResults) uint64 {
	t.Helper()
	switch {
	case res.Scalable != nil:
		return res.Scalable.Traffic.TotalBytes()
	case res.Baseline != nil:
		return res.Baseline.BusBytes
	case res.TL2 != nil:
		return res.TL2.Traffic.TotalBytes()
	case res.Eager != nil:
		return res.Eager.Traffic.TotalBytes()
	}
	t.Fatalf("%s: result carries no %s detail", c.Name, c.Protocol)
	return 0
}

// goldenProtocolConfigs are the canonical rival-protocol runs: a contended
// hotspot run per model (the workload where lazy-vs-eager detection
// diverges most) and a locality-heavy barnes run per model, then one barnes
// run per registered protocol on the knob machine.
func goldenProtocolConfigs() []goldenProtoCell {
	return []goldenProtoCell{
		{Name: "tl2-hotspot-4p", Protocol: "tl2", App: "hotspot", Procs: 4, Scale: 0.1, Seed: 2},
		{Name: "tl2-barnes-8p", Protocol: "tl2", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1},
		{Name: "eager-hotspot-4p", Protocol: "eager", App: "hotspot", Procs: 4, Scale: 0.1, Seed: 2},
		{Name: "eager-barnes-8p", Protocol: "eager", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1},
		{Name: "tcc-knobs-barnes-8p", Protocol: "tcc", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1, Machine: knobMachine},
		{Name: "baseline-knobs-barnes-8p", Protocol: "baseline", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1, Machine: knobMachine},
		{Name: "tl2-knobs-barnes-8p", Protocol: "tl2", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1, Machine: knobMachine},
		{Name: "eager-knobs-barnes-8p", Protocol: "eager", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1, Machine: knobMachine},
	}
}

func TestGoldenProtocolFixture(t *testing.T) {
	var got []goldenProtoCell
	for _, c := range goldenProtocolConfigs() {
		got = append(got, runGoldenProtoCell(t, c))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenProtocolsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenProtocolsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenProtocolsPath)
		return
	}

	buf, err := os.ReadFile(goldenProtocolsPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	var want []goldenProtoCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cells, run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("golden cell %s diverged:\n  want %+v\n  got  %+v", want[i].Name, want[i], got[i])
		}
	}
}

// TestGoldenProtocolReplayStable: the rival models' determinism must not
// depend on process-lifetime state either.
func TestGoldenProtocolReplayStable(t *testing.T) {
	for _, c := range []goldenProtoCell{goldenProtocolConfigs()[0], goldenProtocolConfigs()[2]} {
		a := runGoldenProtoCell(t, c)
		b := runGoldenProtoCell(t, c)
		if a.EventHash != b.EventHash || a.Cycles != b.Cycles {
			t.Fatalf("same-seed replay diverged: %+v vs %+v", a, b)
		}
	}
}
