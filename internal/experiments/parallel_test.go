package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scalabletcc/tcc"
)

// TestParallelFig7Deterministic is the harness's core guarantee: a
// Figure-7 sweep fanned across 8 workers must produce row-for-row (indeed
// byte-for-byte) identical printed output to the sequential run for the
// same seed, and an identical machine-readable report.
func TestParallelFig7Deterministic(t *testing.T) {
	render := func(parallel int) (string, []byte) {
		sw := tinySweep("fig7")
		sw.Parallel = parallel
		res, rep := sweep(t, sw)
		// The report header records the worker count as provenance; the
		// cells are the determinism claim.
		cells, err := json.Marshal(rep.Cells)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tables, cells
	}
	seqOut, seqJSON := render(1)
	parOut, parJSON := render(8)
	if seqOut != parOut {
		t.Errorf("parallel table output differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seqOut, parOut)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("parallel JSON report differs from sequential:\n%s\nvs\n%s", seqJSON, parJSON)
	}
}

func TestDefaultOptionsNormalize(t *testing.T) {
	o := DefaultOptions()
	if err := o.Normalize(); err != nil {
		t.Fatalf("DefaultOptions does not normalize: %v", err)
	}
	if len(o.Procs) != 7 || o.Procs[6] != 64 {
		t.Errorf("default Procs = %v", o.Procs)
	}
	if len(o.HopLatencies) != 4 {
		t.Errorf("default HopLatencies = %v", o.HopLatencies)
	}
	if o.Parallel < 1 {
		t.Errorf("default Parallel = %d", o.Parallel)
	}
}

// TestNormalizeFailsLoudly: zero-valued scalars are invalid, not silently
// rewritten — the old zero-means-default getters are gone.
func TestNormalizeFailsLoudly(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"zero seed", func(o *Options) { o.Seed = 0 }, "Seed 0"},
		{"zero scale", func(o *Options) { o.Scale = 0 }, "Scale 0"},
		{"negative scale", func(o *Options) { o.Scale = -1 }, "Scale -1"},
		{"zero maxprocs", func(o *Options) { o.MaxProcs = 0 }, "MaxProcs 0"},
		{"zero parallel", func(o *Options) { o.Parallel = 0 }, "Parallel 0"},
		{"negative timeout", func(o *Options) { o.JobTimeout = -time.Second }, "JobTimeout"},
		{"bad proc count", func(o *Options) { o.Procs = []int{1, 0} }, "processor count 0"},
		{"bad hop latency", func(o *Options) { o.HopLatencies = []int{0} }, "hop latency 0"},
		{"unknown app", func(o *Options) { o.Apps = []string{"nope"} }, `unknown profile "nope"`},
	}
	for _, c := range cases {
		o := DefaultOptions()
		c.mutate(&o)
		err := o.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize accepted invalid options", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSweepReport: the JSON sink must cover every (app, procs) cell the
// sweep ran, with the versioned schema and sane per-cell contents.
func TestSweepReport(t *testing.T) {
	sw := tinySweep("fig7")
	_, rep := sweep(t, sw)
	if rep.Schema != ReportSchema || rep.Version != ReportVersion {
		t.Fatalf("report header %q v%d", rep.Schema, rep.Version)
	}
	type key struct {
		app   string
		procs int
	}
	got := map[key]Cell{}
	for _, c := range rep.Cells {
		if c.Experiment != "fig7" || c.Machine != "scalable" {
			t.Errorf("unexpected cell %+v", c)
		}
		got[key{c.App, c.Procs}] = c
	}
	for _, app := range sw.Apps {
		for _, procs := range sw.Procs {
			c, ok := got[key{app, procs}]
			if !ok {
				t.Fatalf("report missing cell (%s, %d)", app, procs)
			}
			var s tcc.Summary
			if err := json.Unmarshal(c.Summary, &s); err != nil {
				t.Fatal(err)
			}
			if s.Cycles == 0 || s.Commits == 0 {
				t.Errorf("(%s, %d): empty summary %+v", app, procs, s)
			}
			if len(c.Traffic) == 0 {
				t.Errorf("(%s, %d): missing traffic decomposition", app, procs)
			}
			if procs == 1 && (c.SpeedupVsBase < 0.999 || c.SpeedupVsBase > 1.001) {
				t.Errorf("(%s, %d): base speedup = %f", app, procs, c.SpeedupVsBase)
			}
			if procs == 8 && c.SpeedupVsBase <= 1.0 {
				t.Errorf("(%s, %d): speedup_vs_base = %f", app, procs, c.SpeedupVsBase)
			}
		}
	}

	// The document round-trips as JSON with the versioned summary form.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != ReportSchema {
		t.Errorf("schema field = %v", doc["schema"])
	}
	cells := doc["cells"].([]any)
	if len(cells) != len(rep.Cells) {
		t.Fatalf("marshalled %d cells, want %d", len(cells), len(rep.Cells))
	}
	first := cells[0].(map[string]any)
	sum := first["summary"].(map[string]any)
	if sum["v"] != float64(1) {
		t.Errorf("summary version = %v", sum["v"])
	}
	bd := sum["breakdown"].(map[string]any)
	var total float64
	for _, k := range []string{"useful", "cache_miss", "idle", "commit", "violation"} {
		v, ok := bd[k].(float64)
		if !ok {
			t.Fatalf("breakdown missing %q: %v", k, bd)
		}
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("breakdown fractions sum to %f", total)
	}
}

// TestSweepReportBaselineCells: the A1 matrix reports both machines, and
// the baseline cells carry no mesh-traffic decomposition.
func TestSweepReportBaselineCells(t *testing.T) {
	sw := tinySweep("baseline")
	sw.Apps = []string{"commitbound"}
	_, rep := sweep(t, sw)
	var scal, base int
	for _, c := range rep.Cells {
		switch c.Machine {
		case "scalable":
			scal++
			if len(c.Traffic) == 0 {
				t.Error("scalable cell lacks traffic")
			}
		case "baseline":
			base++
			if len(c.Traffic) != 0 {
				t.Error("baseline cell has mesh traffic")
			}
		default:
			t.Errorf("bad machine %q", c.Machine)
		}
	}
	if scal != 2 || base != 2 {
		t.Fatalf("reported %d scalable + %d baseline cells", scal, base)
	}
}

// TestValidateRunsAfterMutate: a bad sweep knob must fail with a config
// error from Validate, not a crash deep inside core.
func TestValidateRunsAfterMutate(t *testing.T) {
	opts := tiny()
	opts.Apps = []string{"barnes"}
	_, err := opts.runJob(Job{
		App:    "barnes",
		Procs:  8,
		Mutate: func(c *tcc.Config) { c.LineSize = -32 },
	})
	if err == nil {
		t.Fatal("invalid mutated config accepted")
	}
	if !strings.Contains(err.Error(), "invalid config") {
		t.Fatalf("error is not a config validation failure: %v", err)
	}
}
