package scalabletcc

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"scalabletcc/tcc"
)

// The job API must be an exact adapter: driving a simulation through
// tcc.RunJob (the path the CLIs and the tccd daemon share) has to reproduce
// the golden fixtures bit-for-bit — same cycle counts, same aggregate
// statistics, same event-stream hash — as constructing the systems directly.
// If these tests diverge while TestGoldenFixture still passes, the job
// layer's spec-to-Config translation drifted from the library defaults.

// runJobGoldenCell reruns one testdata/golden.json cell through tcc.RunJob.
func runJobGoldenCell(t *testing.T, c goldenCell) goldenCell {
	t.Helper()
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{App: c.App, Procs: c.Procs, Scale: c.Scale, Seed: c.Seed}
	if c.System == "baseline" {
		spec.Run.Protocol = "baseline"
	}
	eh := newEventHasher()
	out, err := tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{Observer: eh.observer()})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	switch c.System {
	case "scalable":
		res := out.Proto.Scalable
		c.Cycles = uint64(res.Cycles)
		c.Commits = res.Commits
		c.Violations = res.Violations
		c.Instr = res.Instr
		c.Bytes = res.Traffic.TotalBytes()
	case "baseline":
		sum := out.Proto.Summary
		c.Cycles = sum.Cycles
		c.Commits = sum.Commits
		c.Violations = sum.Violations
		c.Instr = sum.Instructions
		c.Bytes = out.Proto.Baseline.BusBytes
	default:
		t.Fatalf("%s: unknown system %q", c.Name, c.System)
	}
	c.Events = eh.n
	c.EventHash = eh.sum()
	return c
}

// runJobGoldenProtoCell reruns one testdata/golden_protocols.json cell
// through tcc.RunJob.
func runJobGoldenProtoCell(t *testing.T, c goldenProtoCell) goldenProtoCell {
	t.Helper()
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{
		App: c.App, Procs: c.Procs, Scale: c.Scale, Seed: c.Seed,
		Protocol: c.Protocol, Machine: c.Machine,
	}
	eh := newEventHasher()
	out, err := tcc.RunJob(context.Background(), spec, &tcc.RunJobOptions{Observer: eh.observer()})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	res := out.Proto
	c.Cycles = res.Summary.Cycles
	c.Commits = res.Summary.Commits
	c.Violations = res.Summary.Violations
	c.Instr = res.Summary.Instructions
	c.Bytes = protoBytes(t, c, res)
	c.Events = eh.n
	c.EventHash = eh.sum()
	return c
}

func TestRunJobMatchesGoldenFixture(t *testing.T) {
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		got := runJobGoldenCell(t, goldenCell{
			Name: w.Name, System: w.System, App: w.App,
			Procs: w.Procs, Scale: w.Scale, Seed: w.Seed,
		})
		if got != w {
			t.Errorf("RunJob diverged from golden cell %s:\n  want %+v\n  got  %+v", w.Name, w, got)
		}
	}
}

func TestRunJobMatchesGoldenProtocolFixture(t *testing.T) {
	buf, err := os.ReadFile(goldenProtocolsPath)
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	var want []goldenProtoCell
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		got := runJobGoldenProtoCell(t, goldenProtoCell{
			Name: w.Name, Protocol: w.Protocol, App: w.App,
			Procs: w.Procs, Scale: w.Scale, Seed: w.Seed, Machine: w.Machine,
		})
		if !reflect.DeepEqual(got, w) {
			t.Errorf("RunJob diverged from golden cell %s:\n  want %+v\n  got  %+v", w.Name, w, got)
		}
	}
}

// TestRunJobSummaryMatchesProto: the wire-form Summary a daemon client
// receives must agree with the typed result a library caller sees.
func TestRunJobSummaryMatchesProto(t *testing.T) {
	spec := tcc.NewJobSpec(tcc.JobKindRun)
	spec.Run = &tcc.RunSpec{App: "hotspot", Procs: 4, Scale: 0.1, Seed: 2}
	out, err := tcc.RunJob(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Cycles  uint64 `json:"cycles"`
		Commits uint64 `json:"commits"`
	}
	if err := json.Unmarshal(out.Result.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Cycles != out.Proto.Summary.Cycles || sum.Commits != out.Proto.Summary.Commits {
		t.Fatalf("wire summary %+v disagrees with typed summary %+v", sum, out.Proto.Summary)
	}
}
