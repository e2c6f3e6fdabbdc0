package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"scalabletcc/tcc"
)

// The head-to-head sweep covers every (protocol, procs) cell, normalizes
// speedups within each protocol series, and records a protocol-tagged v2
// report cell per run.
func TestProtocolSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.Procs = []int{1, 4}
	opts.Apps = []string{"hotspot"}
	opts.Verify = true
	cells, err := ProtocolSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := tcc.ProtocolNames()
	if len(cells) != len(want)*len(opts.Procs) {
		t.Fatalf("sweep produced %d cells, want %d", len(cells), len(want)*len(opts.Procs))
	}
	seen := map[string]int{}
	for _, c := range cells {
		seen[c.Protocol]++
		if c.Cycles == 0 || c.Commits == 0 {
			t.Errorf("%s/%d: empty cell %+v", c.Protocol, c.Procs, c)
		}
		if c.Procs == opts.Procs[0] && (c.Speedup < 0.999 || c.Speedup > 1.001) {
			t.Errorf("%s: series base speedup = %f", c.Protocol, c.Speedup)
		}
	}
	for _, p := range want {
		if seen[p] != len(opts.Procs) {
			t.Errorf("protocol %s has %d cells, want %d", p, seen[p], len(opts.Procs))
		}
	}

	// The report tags every cell with its protocol; the legacy machine
	// field keeps "scalable" for the paper's design.
	sw := tinySweep("protocols")
	sw.Apps, sw.Procs = opts.Apps, opts.Procs
	_, rep := sweep(t, sw)
	if len(rep.Cells) != len(cells) {
		t.Fatalf("report has %d cells, sweep %d", len(rep.Cells), len(cells))
	}
	for _, c := range rep.Cells {
		if c.Protocol == "" {
			t.Errorf("cell without protocol tag: %+v", c)
		}
		if c.Protocol == "tcc" && c.Machine != "scalable" {
			t.Errorf("tcc cell has machine %q", c.Machine)
		}
		if c.Protocol != "tcc" && c.Machine != c.Protocol {
			t.Errorf("%s cell has machine %q", c.Protocol, c.Machine)
		}
		if c.Protocol != "baseline" && len(c.Traffic) == 0 {
			t.Errorf("%s cell lacks mesh traffic", c.Protocol)
		}
	}
}

// Unknown protocol names fail at Normalize with the registry listed, before
// any simulation runs.
func TestOptionsRejectUnknownProtocol(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocols = []string{"occ"}
	err := opts.Normalize()
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, name := range tcc.ProtocolNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registry entry %q", err, name)
		}
	}
}

// The v2 report schema is pinned: these are the exact bytes a consumer of
// BENCH_protocols.json parses. Field renames or reorderings are breaking
// changes and must bump ReportVersion.
func TestReportV2PinnedBytes(t *testing.T) {
	summary, err := json.Marshal(tcc.Summary{Protocol: "tl2", Cycles: 10, Instructions: 4, Commits: 2, Violations: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		Schema:   ReportSchema,
		Version:  ReportVersion,
		Seed:     1,
		Scale:    0.25,
		Parallel: 2,
		Cells: []Cell{{
			Experiment:    "protocols",
			App:           "hotspot",
			Procs:         4,
			Machine:       "tl2",
			Protocol:      "tl2",
			SpeedupVsBase: 0.5,
			Summary:       summary,
		}},
	}
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": "scalabletcc/bench-sweep",
  "version": 2,
  "seed": 1,
  "scale": 0.25,
  "parallel": 2,
  "cells": [
    {
      "experiment": "protocols",
      "app": "hotspot",
      "procs": 4,
      "machine": "tl2",
      "protocol": "tl2",
      "speedup_vs_base": 0.5,
      "summary": {
        "v": 1,
        "protocol": "tl2",
        "cycles": 10,
        "instructions": 4,
        "commits": 2,
        "violations": 1,
        "breakdown": {
          "useful": 0,
          "cache_miss": 0,
          "idle": 0,
          "commit": 0,
          "violation": 0
        }
      }
    }
  ]
}
`
	if got := b.String(); got != want {
		t.Errorf("v2 report bytes changed:\n got: %s\nwant: %s", got, want)
	}
}
