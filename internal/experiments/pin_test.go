package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"scalabletcc/internal/runner"
)

// The sweep pin records the tables and the bench-sweep report of one small
// sweep over every experiment, so a change to the experiment driver can
// prove that neither moved. Wall-clock fields are the only host-dependent
// output and are masked before comparison.
//
// Regenerate with:
//
//	go test -run TestSweepMatchesPin -update ./internal/experiments
var updatePin = flag.Bool("update", false, "rewrite testdata/sweep_pin.*")

const (
	pinTablesPath = "testdata/sweep_pin.txt"
	pinReportPath = "testdata/sweep_pin.json"
)

// pinSpec is the pinned sweep: every experiment, small enough to run in
// about two seconds.
func pinSpec(t *testing.T) *runner.JobSpec {
	t.Helper()
	spec := runner.NewJobSpec(runner.KindSweep)
	spec.Sweep = &runner.SweepSpec{
		Procs:    []int{1, 2, 4},
		MaxProcs: 4,
		Shards:   []int{1, 2},
		Scale:    0.02,
		Seed:     1,
		Parallel: 2,
		Tables:   true,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

var wallMS = regexp.MustCompile(`"wall_ms": [-+.eE0-9]+`)

// maskReport hides each cell's wall time but keeps the field, so a report
// that drops wall_ms still differs from one that records it.
func maskReport(rep []byte) []byte {
	return wallMS.ReplaceAll(rep, []byte(`"wall_ms": "masked"`))
}

// timedColumns lists, per timed experiment, the table columns that hold
// wall-clock measurements.
var timedColumns = map[string][]int{
	"scaling": {3, 4}, // Wall, Speedup
	"hotpath": {4},    // Wall(min)
}

// maskTables hides the wall-clock columns of the timed experiments' rows.
// Their widths vary with the host, so those rows are re-joined with single
// spaces; every other line is compared as printed.
func maskTables(tables string) string {
	lines := strings.Split(tables, "\n")
	var cols []int
	header := false
	for i, ln := range lines {
		if strings.HasPrefix(ln, "== ") {
			cols = timedColumns[strings.Trim(ln, "= ")]
			header = true
			continue
		}
		if cols == nil || ln == "" {
			continue
		}
		f := strings.Fields(ln)
		if !header {
			for _, c := range cols {
				f[c] = "*"
			}
		}
		header = false
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

func TestSweepMatchesPin(t *testing.T) {
	res := runSweep(t, pinSpec(t), "")
	tables, report := maskTables(res.Tables), maskReport(res.Report)
	if *updatePin {
		if err := os.MkdirAll(filepath.Dir(pinTablesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinTablesPath, []byte(tables), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinReportPath, report, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantTables, err := os.ReadFile(pinTablesPath)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := os.ReadFile(pinReportPath)
	if err != nil {
		t.Fatal(err)
	}
	if tables != string(wantTables) {
		t.Errorf("tables differ from %s:\n--- got\n%s", pinTablesPath, tables)
	}
	if !bytes.Equal(report, wantReport) {
		t.Errorf("report differs from %s:\n--- got\n%s", pinReportPath, report)
	}
}
