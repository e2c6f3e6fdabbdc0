package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

func sweepSpec(t *testing.T) *runner.JobSpec {
	t.Helper()
	spec := runner.NewJobSpec(runner.KindSweep)
	spec.Sweep = &runner.SweepSpec{
		Experiments: []string{"fig7", "protocols"},
		Apps:        []string{"hotspot"},
		Protocols:   []string{"tcc", "tl2"},
		Procs:       []int{1, 2, 4},
		Scale:       0.05,
		Seed:        3,
		Parallel:    2,
		Tables:      true,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinySweep is the sweep form of tiny(), for one experiment.
func tinySweep(experiment string) *runner.SweepSpec {
	return &runner.SweepSpec{
		Experiments: []string{experiment},
		Apps:        []string{"barnes", "equake"},
		Procs:       []int{1, 8},
		MaxProcs:    8,
		Scale:       0.05,
		Verify:      true,
		Tables:      true,
	}
}

// sweep runs sw through the sweep executor and decodes its report.
func sweep(t *testing.T, sw *runner.SweepSpec) (*runner.JobResult, Report) {
	t.Helper()
	spec := runner.NewJobSpec(runner.KindSweep)
	spec.Sweep = sw
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res := runSweep(t, spec, "")
	var rep Report
	if err := json.Unmarshal(res.Report, &rep); err != nil {
		t.Fatal(err)
	}
	return res, rep
}

func runSweep(t *testing.T, spec *runner.JobSpec, ckpt string) *runner.JobResult {
	t.Helper()
	jc := runner.NewJobContext()
	jc.ID = "j000000"
	jc.CheckpointPath = ckpt
	res, err := executeSweep(context.Background(), spec, jc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A sweep resumed from a partial checkpoint manifest must produce the
// report an uninterrupted run produces — the pinned one — on every
// experiment: the manifest is cut after dircache's first cell, so the
// resume replays the experiments before it, reruns dircache's missing
// cells, and runs the rest.
func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	spec := pinSpec(t)
	want, err := os.ReadFile(pinReportPath)
	if err != nil {
		t.Fatal(err)
	}

	// Run once with checkpointing to record a full manifest, then emulate a
	// daemon killed mid-sweep by truncating it. (Deterministic, unlike
	// racing a real cancellation.)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt.jsonl")
	full := runSweep(t, spec, ckpt)
	if full.Resumed || !strings.Contains(full.Tables, "== fig7 ==") {
		t.Fatalf("fresh run: resumed=%v, tables %q", full.Resumed, full.Tables[:min(len(full.Tables), 80)])
	}
	if !bytes.Equal(full.Report, want) {
		t.Fatal("checkpointed fresh run must not change the report")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	cut := 0
	for i, ln := range lines[1:] {
		if bytes.Contains(ln, []byte(`"experiment":"dircache"`)) {
			cut = i + 2 // the header, every cell before dircache, and dircache's first cell
			break
		}
	}
	if cut == 0 || cut >= len(lines) || !bytes.Contains(lines[cut], []byte(`"experiment":"dircache"`)) {
		t.Fatal("manifest has no second dircache cell to cut before")
	}
	if err := os.WriteFile(ckpt, bytes.Join(lines[:cut], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := runSweep(t, spec, ckpt)
	if !resumed.Resumed {
		t.Fatal("run from a non-empty manifest must report Resumed")
	}
	if resumed.Tables != "" {
		t.Fatal("resumed runs drop tables (checkpoints carry cells, not rows)")
	}
	if resumed.Cells != full.Cells {
		t.Fatalf("resumed %d cells, uninterrupted %d", resumed.Cells, full.Cells)
	}
	if !bytes.Equal(resumed.Report, want) {
		t.Fatalf("resumed report differs from uninterrupted:\n--- uninterrupted\n%s\n--- resumed\n%s", want, resumed.Report)
	}

	// A manifest recorded under a different spec must be ignored, not
	// replayed: the edited job recomputes from scratch.
	edited := runner.NewJobSpec(runner.KindSweep)
	edited.Sweep = tinySweep("fig6")
	if res := runSweep(t, edited, ckpt); res.Resumed {
		t.Fatal("a spec change must invalidate the manifest")
	}
}

// The per-cell timeout applies to every cell of every experiment.
func TestSweepTimeout(t *testing.T) {
	spec := runner.NewJobSpec(runner.KindSweep)
	spec.Sweep = &runner.SweepSpec{
		Experiments: []string{"fig7"},
		Apps:        []string{"barnes"},
		Procs:       []int{16},
		Scale:       0.1,
		TimeoutMS:   1,
	}
	jc := runner.NewJobContext()
	_, err := executeSweep(context.Background(), spec, jc)
	if err == nil || !strings.Contains(err.Error(), "timed out after 1ms") {
		t.Fatalf("want the cell timeout error, got %v", err)
	}
}

// A cell still running at its timeout stops at its next cycle boundary, so
// the matrix fails as soon as the timeout expires instead of when the
// simulation would have finished, and of several cells that timed out the
// lowest-index one is reported.
func TestCellTimeoutStopsRunningCells(t *testing.T) {
	o := DefaultOptions()
	o.Parallel = 2
	o.JobTimeout = 50 * time.Millisecond
	jobs := []Job{{App: "barnes", Procs: 16}, {App: "hotspot", Procs: 16}}
	start := time.Now()
	_, err := o.runMatrix("timeout", jobs, every(len(jobs)))
	if err == nil || !strings.Contains(err.Error(), "tcc barnes on 16 procs: timed out after 50ms") {
		t.Fatalf("want cell 0's timeout, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("matrix took %v to fail after a 50ms cell timeout", d)
	}
}

// A spec written before the timed experiments were retired still decodes
// (shards stays on the wire), but admission refuses it and says where each
// measurement lives now; "all" means the remaining registry.
func TestSweepRefusesRetiredInputs(t *testing.T) {
	parentEra := []byte(`{"schema":"scalabletcc/job","version":1,"kind":"sweep",
		"sweep":{"experiments":["fig7","scaling","hotpath"],"procs":[16],"shards":[1,2]}}`)
	spec, err := runner.DecodeJobSpec(parentEra)
	if err != nil {
		t.Fatal(err)
	}
	err = validateSweepSpec(spec)
	if err == nil || !strings.Contains(err.Error(), `"scaling"`) ||
		!strings.Contains(err.Error(), "removed") || !strings.Contains(err.Error(), "BenchmarkShardedKernel (gated by scripts/bench_gate.py)") {
		t.Fatalf("want the named scaling refusal, got %v", err)
	}
	spec.Sweep.Experiments = []string{"hotpath"}
	if err = validateSweepSpec(spec); err == nil || !strings.Contains(err.Error(), `"hotpath"`) ||
		!strings.Contains(err.Error(), "BenchmarkSimulatorThroughput") || !strings.Contains(err.Error(), "scripts/bench_gate.py") {
		t.Fatalf("want the named hotpath refusal, got %v", err)
	}
	spec.Sweep.Experiments = []string{"fig7"}
	if err = validateSweepSpec(spec); err == nil || !strings.Contains(err.Error(), "shards") ||
		!strings.Contains(err.Error(), "removed") {
		t.Fatalf("want the named shards refusal, got %v", err)
	}
	spec.Sweep.Shards = nil
	if err = validateSweepSpec(spec); err != nil {
		t.Fatalf("the spec without retired inputs must be admitted: %v", err)
	}
	for _, n := range Names() {
		if n == "scaling" || n == "hotpath" {
			t.Fatalf("registry still lists %q", n)
		}
	}
}

// The full-registry default ("all" / empty) must honor the table3 machine
// quirk and validate loudly on bad names.
func TestSweepSpecResolution(t *testing.T) {
	if names, err := sweepNames(&runner.SweepSpec{}); err != nil || len(names) != len(Names()) {
		t.Fatalf("empty list must mean the registry: %v %v", names, err)
	}
	if names, err := sweepNames(&runner.SweepSpec{Experiments: []string{"all"}}); err != nil || len(names) != len(Names()) {
		t.Fatalf(`"all" must mean the registry: %v %v`, names, err)
	}
	if _, err := sweepNames(&runner.SweepSpec{Experiments: []string{"fig99"}}); err == nil ||
		!strings.Contains(err.Error(), "fig7") {
		t.Fatalf("unknown experiment must list valid names, got %v", err)
	}

	spec := runner.NewJobSpec(runner.KindSweep)
	spec.Sweep = &runner.SweepSpec{Apps: []string{"no-such-app"}}
	if err := validateSweepSpec(spec); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("bad app must fail validation, got %v", err)
	}

	// Table 3 reports at 32 CPUs unless the spec pins the machine size.
	for _, c := range []struct{ pinned, want int }{{0, 32}, {16, 16}} {
		sw := tinySweep("table3")
		sw.Apps, sw.MaxProcs, sw.Scale = []string{"barnes"}, c.pinned, 0.02
		if _, rep := sweep(t, sw); len(rep.Cells) != 1 || rep.Cells[0].Procs != c.want {
			t.Fatalf("max_procs %d: table3 cells %+v, want one at %d CPUs", c.pinned, rep.Cells, c.want)
		}
	}
}

// The sweep kind is registered with the tcc job registry on import, and a
// canceled context stops the sweep.
func TestSweepRegisteredAndCancelable(t *testing.T) {
	spec := sweepSpec(t)
	spec.Sweep.Tables = false
	out, err := tcc.RunJob(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Kind != runner.KindSweep || out.Result.Cells == 0 || out.Result.Tables != "" {
		t.Fatalf("sweep through tcc.RunJob: %+v", out.Result)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tcc.RunJob(ctx, spec, nil); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled sweep must fail with the context error, got %v", err)
	}
}
