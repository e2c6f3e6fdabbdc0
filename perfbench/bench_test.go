package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifestDefs is the part of BENCHMARK.json the program must agree with.
type manifestDefs struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifestDefs {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestDefs
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// tinyRun runs one workload at a tenth of its size for a moment and
// returns the final report line.
func tinyRun(t *testing.T, workload string, trace, corrupt bool) report {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 0.01, trace: trace, corrupt: corrupt,
		scratch: t.TempDir(), scale: 0.1, stdout: &out}
	if err := run(o); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not the report: %v", workload, err)
	}
	return rep
}

func TestTinyPassPrintsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w, trace, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := m.EndToEnd
			if trace {
				defs = m.PerLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := rep.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.Name, got, d.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, got.Value)
				}
			}
		}
	}
}

func TestCorruptedReferenceCountsAsFailure(t *testing.T) {
	for _, w := range workloadNames() {
		rep := tinyRun(t, w, false, true)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted reference summary went unnoticed (attempted %d, failed %d)", w, rep.Attempted, rep.Failed)
		}
	}
	if rep := tinyRun(t, "paper-mix", true, true); rep.Metrics["error_rate"].Value <= 0 {
		t.Errorf("traced run with a corrupted reference reports error_rate %v", rep.Metrics["error_rate"].Value)
	}
}

func TestCovered(t *testing.T) {
	ss := []span{{StartNs: 10, EndNs: 20}, {StartNs: 0, EndNs: 5}, {StartNs: 15, EndNs: 30}, {StartNs: 16, EndNs: 18}}
	if got := covered(ss); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"scalabletcc/internal/sim.(*Kernel).Run":          "sim",
		"scalabletcc/internal/cache.(*Cache).Lookup":      "cache",
		"scalabletcc/internal/stats.(*Histogram).Add":     "other",
		"encoding/json.(*encodeState).marshal":            "json",
		"runtime.scanobject":                              "gc",
		"runtime.mallocgc":                                "gc",
		"runtime.memmove":                                 "other",
		"net/http.(*conn).serve":                          "net",
		"internal/poll.(*FD).Write":                       "syscall",
		"internal/runtime/syscall.Syscall6":               "syscall",
		"scalabletcc/tcc.ExecuteJob":                      "other",
		"scalabletcc/internal/tl2.(*System).commit.func1": "tl2",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
