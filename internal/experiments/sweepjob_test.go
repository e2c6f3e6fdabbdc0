package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// checkpointCells decodes the cells in a sweep's checkpoint file, in file
// order, each with its raw JSON.
func checkpointCells(t *testing.T, path string, spec *runner.JobSpec) []keptEntry {
	t.Helper()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	line, err := runner.ReadSnapshot(path, hash)
	if err != nil || line == nil {
		t.Fatalf("no checkpoint entry in %s (err=%v)", path, err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(line, &raws); err != nil {
		t.Fatalf("checkpoint entry is not a JSON array: %v", err)
	}
	cells := make([]keptEntry, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &cells[i].entry); err != nil {
			t.Fatalf("checkpoint cell %d: %v", i, err)
		}
		cells[i].raw = raw
	}
	return cells
}

// A sweep resumed from a partial checkpoint must produce the report an
// uninterrupted run produces — the pinned one — on every experiment: the
// checkpoint is cut to the cells of the experiments before dircache and
// dircache's first cell, so the resume replays those, reruns dircache's
// missing cells, and runs the rest.
func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	spec := pinSpec(t)
	want, err := os.ReadFile(pinReportPath)
	if err != nil {
		t.Fatal(err)
	}

	// Run once with checkpointing to record every cell, then emulate a
	// daemon killed mid-sweep by rewriting the checkpoint with part of
	// them. (Deterministic, unlike racing a real cancellation.)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt.jsonl")
	full := runSweep(t, spec, ckpt)
	if full.Resumed || !strings.Contains(full.Tables, "== fig7 ==") {
		t.Fatalf("fresh run: resumed=%v, tables %q", full.Resumed, full.Tables[:min(len(full.Tables), 80)])
	}
	if !bytes.Equal(full.Report, want) {
		t.Fatal("checkpointed fresh run must not change the report")
	}
	cells := checkpointCells(t, ckpt, spec)
	if len(cells) != full.Cells {
		t.Fatalf("checkpoint holds %d cells, the report %d", len(cells), full.Cells)
	}
	pos := make(map[string]int)
	for i, n := range Names() {
		pos[n] = i
	}
	var keep [][]byte
	for _, c := range cells {
		if pos[c.Experiment] < pos["dircache"] || c.Experiment == "dircache" && c.Index == 0 {
			keep = append(keep, c.raw)
		}
	}
	if len(keep) == 0 || len(keep) >= len(cells) {
		t.Fatalf("cut keeps %d of %d cells", len(keep), len(cells))
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.WriteSnapshot(ckpt, "j000000", hash,
		[]byte("["), bytes.Join(keep, []byte(",")), []byte("]")); err != nil {
		t.Fatal(err)
	}

	resumed := runSweep(t, spec, ckpt)
	if !resumed.Resumed {
		t.Fatal("run from a non-empty checkpoint must report Resumed")
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

	// A checkpoint recorded under a different spec must be ignored, not
	// replayed: the edited job recomputes from scratch.
	edited := runner.NewJobSpec(runner.KindSweep)
	edited.Sweep = tinySweep("fig6")
	if res := runSweep(t, edited, ckpt); res.Resumed {
		t.Fatal("a spec change must invalidate the checkpoint")
	}
}

// With cells finishing on two workers, and each image written outside the
// entries lock, every write of the checkpoint file holds distinct cells in
// (experiment, index) order: all those of the write before, byte for byte,
// plus at least one more, and the last holds the whole report's. A sweep
// resumed from any of those images, with the temp file of a write torn by
// a crash beside it, reports byte for byte what an uninterrupted sweep
// reports.
func TestSweepCheckpointHoldsFinishedCells(t *testing.T) {
	spec := sweepSpec(t)
	spec.Sweep.Tables = false
	if spec.Sweep.Parallel < 2 {
		t.Fatal("the sweep must finish cells on more than one worker")
	}
	want := runSweep(t, spec, "")

	dir := t.TempDir()
	jc := runner.NewJobContext()
	jc.ID = "j000000"
	jc.CheckpointPath = filepath.Join(dir, "sweep.ckpt.jsonl")
	done, err := openCheckpoint(spec, jc)
	if err != nil {
		t.Fatal(err)
	}
	// The hook runs on the workers, so it only records each image; the
	// checks run on the test goroutine.
	var images [][]byte
	save := done.save
	done.save = func(pieces ...[]byte) { // called by put, under done.wmu
		save(pieces...)
		data, err := os.ReadFile(jc.CheckpointPath)
		if err != nil {
			t.Error(err)
		}
		images = append(images, data)
	}
	res, err := sweepFrom(context.Background(), spec, jc, done)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed || !bytes.Equal(res.Report, want.Report) {
		t.Fatalf("checkpointed sweep: resumed=%v, report equal %v", res.Resumed, bytes.Equal(res.Report, want.Report))
	}
	if len(images) == 0 || len(images) > res.Cells {
		t.Fatalf("%d writes for a %d-cell report", len(images), res.Cells)
	}

	var prev []keptEntry
	for n, img := range images {
		path := filepath.Join(dir, fmt.Sprintf("resume%d.ckpt.jsonl", n))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		cells := checkpointCells(t, path, spec)
		if len(cells) <= len(prev) {
			t.Fatalf("write %d holds %d cells, the write before %d", n+1, len(cells), len(prev))
		}
		for i := 1; i < len(cells); i++ {
			a, b := cells[i-1], cells[i]
			if a.Experiment > b.Experiment || a.Experiment == b.Experiment && a.Index >= b.Index {
				t.Fatalf("write %d: cell %d (%s %d) is not after cell %d (%s %d)",
					n+1, i, b.Experiment, b.Index, i-1, a.Experiment, a.Index)
			}
		}
		for _, p := range prev {
			j, ok := (&entries{kept: cells}).find(p.Experiment, p.Index)
			if !ok || !bytes.Equal(cells[j].raw, p.raw) {
				t.Fatalf("write %d dropped or changed %s cell %d", n+1, p.Experiment, p.Index)
			}
		}
		prev = cells

		next := images[min(n+1, len(images)-1)]
		if err := os.WriteFile(path+".tmp", next[:len(next)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		got := runSweep(t, spec, path)
		if !got.Resumed || !bytes.Equal(got.Report, want.Report) {
			t.Fatalf("resume from write %d: resumed=%v, report\n%s", n+1, got.Resumed, got.Report)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("resume from write %d left the torn temp file (%v)", n+1, err)
		}
	}
	if len(prev) != res.Cells {
		t.Fatalf("the last write holds %d cells of %d", len(prev), res.Cells)
	}
}

// An image built before another but reaching the writer after it is
// dropped: the file never goes back to fewer cells.
func TestSweepCheckpointDropsOlderImage(t *testing.T) {
	var saved []string
	s := &entries{save: func(pieces ...[]byte) { saved = append(saved, string(bytes.Join(pieces, nil))) }}
	gen1, img1 := s.keep(entry{Experiment: "fig6", Index: 0}, []byte("a"), nil)
	gen2, img2 := s.keep(entry{Experiment: "fig6", Index: 1}, []byte("b"), nil)
	s.write(gen2, img2)
	s.write(gen1, img1)
	if len(saved) != 1 || saved[0] != "[a,b]" {
		t.Fatalf("saved %q, want only the newer image [a,b]", saved)
	}
}

// A checkpoint write that fails is logged and not kept: the next finished
// cell's write carries every cell, the one that failed to land included.
func TestSweepCheckpointWriteFailureIsNotSticky(t *testing.T) {
	spec := sweepSpec(t)
	spec.Sweep.Tables = false
	var logged []string
	jc := runner.NewJobContext()
	jc.ID = "j000000"
	jc.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt.jsonl")
	jc.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	done, err := openCheckpoint(spec, jc)
	if err != nil {
		t.Fatal(err)
	}
	var images [][]byte
	save := done.save
	done.save = func(pieces ...[]byte) { // called by put, under done.wmu
		tmp := jc.CheckpointPath + ".tmp"
		if len(images) == 1 {
			// A directory in the temp file's place makes this write fail.
			if err := os.Mkdir(tmp, 0o755); err != nil {
				t.Error(err)
			}
			defer os.Remove(tmp)
		}
		save(pieces...)
		data, err := os.ReadFile(jc.CheckpointPath)
		if err != nil {
			t.Error(err)
		}
		images = append(images, data)
	}
	res, err := sweepFrom(context.Background(), spec, jc, done)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) < 3 {
		t.Fatalf("only %d writes; the failed one must be followed by another", len(images))
	}
	if !bytes.Equal(images[1], images[0]) {
		t.Fatal("the failed write changed the file")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "sweep checkpoint not written") {
		t.Fatalf("logged %q, want one failed write", logged)
	}
	if got := checkpointCells(t, jc.CheckpointPath, spec); len(got) != res.Cells {
		t.Fatalf("checkpoint holds %d cells after the sweep, want all %d", len(got), res.Cells)
	}
}

// A checkpoint file of the shape sweeps once wrote, the header and one
// appended line per finished cell, holds nothing a sweep resumes from: the
// sweep recomputes from scratch (Resumed false, tables kept), reports what
// an uninterrupted sweep reports, and leaves the file in the one-entry
// shape. A file with one such line says why it recomputed.
func TestSweepOldManifestRecomputes(t *testing.T) {
	spec := sweepSpec(t)
	want := runSweep(t, spec, "")
	path := filepath.Join(t.TempDir(), "sweep.ckpt.jsonl")
	runSweep(t, spec, path)
	cells := checkpointCells(t, path, spec)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, _, _ := bytes.Cut(data, []byte("\n"))

	for _, n := range []int{1, len(cells)} {
		manifest := append(append([]byte(nil), hdr...), '\n')
		for _, c := range cells[:n] {
			manifest = append(append(manifest, c.raw...), '\n')
		}
		if err := os.WriteFile(path, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		jc := runner.NewJobContext()
		jc.ID = "j000000"
		jc.CheckpointPath = path
		jc.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		res, err := executeSweep(context.Background(), spec, jc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resumed || res.Tables != want.Tables || !bytes.Equal(res.Report, want.Report) {
			t.Fatalf("%d-line manifest: resumed=%v, tables equal %v, report equal %v",
				n, res.Resumed, res.Tables == want.Tables, bytes.Equal(res.Report, want.Report))
		}
		recomputing := len(logged) == 1 && strings.HasSuffix(logged[0], "recomputing from scratch")
		if n == 1 && !recomputing || n > 1 && len(logged) != 0 {
			t.Fatalf("%d-line manifest logged %q", n, logged)
		}
		if got := checkpointCells(t, path, spec); len(got) != res.Cells {
			t.Fatalf("%d-line manifest rewritten with %d cells, want %d", n, len(got), res.Cells)
		}
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
