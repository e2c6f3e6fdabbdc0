package experiments

import (
	"strings"
	"testing"

	"scalabletcc/tcc"
)

// tiny returns options small enough for unit testing.
func tiny() Options {
	o := DefaultOptions()
	o.Scale = 0.05
	o.MaxProcs = 8
	o.Procs = []int{1, 8}
	o.Apps = []string{"barnes", "equake"}
	o.Verify = true
	return o
}

func TestMessageTable(t *testing.T) {
	rows := MessageTable()
	if len(rows) < 14 {
		t.Fatalf("message table has %d entries", len(rows))
	}
	want := map[string]bool{"Skip": false, "NSTIDProbe": false, "Mark": false,
		"Commit": false, "Abort": false, "WriteBack": false}
	for _, r := range rows {
		if _, ok := want[r[0]]; ok {
			want[r[0]] = true
		}
		if r[1] == "" {
			t.Errorf("message %s lacks a description", r[0])
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("Table 1 message %s missing", name)
		}
	}
}

func TestTable1And2Print(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	if !strings.Contains(b.String(), "Skip") {
		t.Fatal("Table1 output missing Skip")
	}
	b.Reset()
	Table2(&b, tcc.DefaultConfig(64))
	for _, want := range []string{"64", "512 KB", "2-D grid", "100 cycles"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Table2 output missing %q:\n%s", want, b.String())
		}
	}
}

func TestTable3(t *testing.T) {
	rows, err := Table3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.TxInstrP90 == 0 || r.OpsPerWordWr <= 0 {
			t.Errorf("%s: empty fingerprint %+v", r.App, r)
		}
	}
	var b strings.Builder
	PrintTable3(&b, rows)
	if !strings.Contains(b.String(), "barnes") {
		t.Fatal("PrintTable3 output missing app")
	}
}

func TestFig6(t *testing.T) {
	rows, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper: 1-CPU commit overhead is insignificant (~1-3%).
		if r.CommitFraction > 0.10 {
			t.Errorf("%s: 1-CPU commit fraction %.1f%% too large", r.App, 100*r.CommitFraction)
		}
	}
	var b strings.Builder
	PrintFig6(&b, rows)
	if !strings.Contains(b.String(), "useful") {
		t.Fatal("PrintFig6 missing breakdown")
	}
}

func TestFig7SpeedupShape(t *testing.T) {
	cells, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Procs == 1 && (c.Speedup < 0.999 || c.Speedup > 1.001) {
			t.Errorf("%s: 1-proc speedup = %f", c.App, c.Speedup)
		}
		if c.Procs == 8 && c.Speedup < 1.5 {
			t.Errorf("%s: 8-proc speedup only %.2f", c.App, c.Speedup)
		}
	}
	var b strings.Builder
	PrintFig7(&b, cells)
	if !strings.Contains(b.String(), "Speedup") {
		t.Fatal("PrintFig7 missing header")
	}
}

func TestFig8LatencyShape(t *testing.T) {
	opts := tiny()
	opts.HopLatencies = []int{1, 8}
	cells, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.HopCycles == 8 && c.SlowdownVsHop1 < 1.0 {
			t.Errorf("%s: higher hop latency sped the run up (%.2f)", c.App, c.SlowdownVsHop1)
		}
	}
	var b strings.Builder
	PrintFig8(&b, cells)
	_ = b
}

func TestFig9TrafficShape(t *testing.T) {
	rows, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("%s: no traffic", r.App)
		}
		sum := r.CommitOverhead + r.Miss + r.WriteBack + r.Shared
		if diff := sum - r.Total; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: classes sum to %.6f, total %.6f", r.App, sum, r.Total)
		}
	}
	var b strings.Builder
	PrintFig9(&b, rows)
	_ = b
}

func TestBaselineComparison(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.Procs = []int{1, 8}
	opts.Apps = []string{"commitbound"}
	cells, err := BaselineComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	var b strings.Builder
	PrintBaseline(&b, cells)
	if !strings.Contains(b.String(), "Bus") {
		t.Fatal("PrintBaseline missing header")
	}
}

// TestBaselineVerifiesBusCells: with Verify, the A1 bus cells run through
// the registry, collect a commit log and pass the serializability check.
func TestBaselineVerifiesBusCells(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.Procs = []int{1, 8}
	opts.Apps = []string{"commitbound"}
	opts.Verify = true
	opts, jobs, err := baseline.prepare(opts)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := opts.runMatrix(baseline.name, jobs, every(len(jobs)))
	if err != nil {
		t.Fatal(err)
	}
	var bus int
	for i, j := range jobs {
		if j.protocol() != "baseline" {
			continue
		}
		bus++
		pr := outs[i].Proto
		if pr == nil || pr.Baseline == nil {
			t.Fatalf("%s %dp: bus cell did not run through the registry", j.App, j.Procs)
		}
		if len(pr.CommitLog) == 0 {
			t.Fatalf("%s %dp: bus cell collected no commit log to verify", j.App, j.Procs)
		}
		if v := pr.Verify(); len(v) != 0 {
			t.Fatalf("%s %dp: %d serializability violations", j.App, j.Procs, len(v))
		}
	}
	if bus != 2 {
		t.Fatalf("%d bus cells, want 2", bus)
	}
}

func TestGranularityAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.25
	opts.MaxProcs = 8
	opts.Apps = []string{"falseshare"}
	rows, err := Granularity(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.WordViolations >= r.LineViolations {
		t.Fatalf("false sharing: word violations (%d) not below line violations (%d)",
			r.WordViolations, r.LineViolations)
	}
	var b strings.Builder
	PrintGranularity(&b, rows)
	_ = b
}

func TestProbesAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.MaxProcs = 8
	opts.Apps = []string{"commitbound"}
	rows, err := Probes(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].RepeatedCommitBytes < rows[0].DeferredCommitBytes {
		t.Fatal("repeated probing produced less commit traffic than deferred")
	}
	var b strings.Builder
	PrintProbes(&b, rows)
	_ = b
}

func TestWriteBackAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.MaxProcs = 8
	opts.Apps = []string{"swim"}
	rows, err := WriteBack(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].TrafficAmplification < 1.0 {
		t.Fatalf("write-through commit produced less traffic (%.2fx) than write-back",
			rows[0].TrafficAmplification)
	}
	var b strings.Builder
	PrintWriteBack(&b, rows)
	_ = b
}

func TestUnknownAppErrors(t *testing.T) {
	opts := DefaultOptions()
	opts.Apps = []string{"nope"}
	opts.Procs = []int{1}
	if _, err := Fig7(opts); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestDirCacheAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.MaxProcs = 8
	opts.Apps = []string{"barnes"}
	rows, err := DirCache(opts)
	if err != nil {
		t.Fatal(err)
	}
	var tiny, unbounded *DirCacheRow
	for i := range rows {
		switch rows[i].Entries {
		case 128:
			tiny = &rows[i]
		case 0:
			unbounded = &rows[i]
		}
	}
	if tiny == nil || unbounded == nil {
		t.Fatal("missing sweep points")
	}
	if unbounded.Misses != 0 {
		t.Fatalf("unbounded directory cache recorded %d misses", unbounded.Misses)
	}
	if tiny.Misses == 0 {
		t.Fatal("128-entry directory cache never missed")
	}
	if tiny.Cycles < unbounded.Cycles {
		t.Fatal("tiny directory cache ran faster than unbounded")
	}
	var b strings.Builder
	PrintDirCache(&b, rows)
	if !strings.Contains(b.String(), "unbounded") {
		t.Fatal("PrintDirCache output")
	}
}

// TestPaperShapeClaims pins the qualitative relations the paper's
// evaluation asserts, on scaled workloads at 16 processors:
//   - SPECjbb2000 "scales linearly" — the best or near-best speedup;
//   - water-spatial "scales better" than water-nsquared;
//   - equake and volrend are communication/commit limited — the low end.
func TestPaperShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run shape test")
	}
	opts := DefaultOptions()
	opts.Scale = 0.25
	opts.Procs = []int{1, 16}
	opts.Apps = []string{"SPECjbb2000", "water-spatial", "water-nsquared", "equake", "volrend", "SVM-Classify"}
	cells, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]float64{}
	for _, c := range cells {
		if c.Procs == 16 {
			sp[c.App] = c.Speedup
		}
	}
	t.Logf("16-proc speedups: %v", sp)
	if sp["SPECjbb2000"] < 10 {
		t.Errorf("SPECjbb2000 speedup %.1f is not near-linear", sp["SPECjbb2000"])
	}
	if sp["water-spatial"] <= sp["water-nsquared"]*0.9 {
		t.Errorf("water-spatial (%.1f) does not scale better than water-nsquared (%.1f)",
			sp["water-spatial"], sp["water-nsquared"])
	}
	for _, low := range []string{"equake", "volrend"} {
		if sp[low] >= sp["SPECjbb2000"] {
			t.Errorf("%s (%.1f) outscaled SPECjbb2000 (%.1f)", low, sp[low], sp["SPECjbb2000"])
		}
	}
	if sp["SVM-Classify"] < sp["volrend"] {
		t.Errorf("SVM-Classify (%.1f) below volrend (%.1f); the paper has it best-in-suite",
			sp["SVM-Classify"], sp["volrend"])
	}
}
