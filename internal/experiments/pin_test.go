package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"scalabletcc/internal/runner"
)

// The sweep pin records the tables and the bench-sweep report of one small
// sweep over every experiment, so a change to the experiment driver can
// prove that neither moved. Every experiment is a function of simulated
// cycles, so both are compared byte for byte.
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

func TestSweepMatchesPin(t *testing.T) {
	res := runSweep(t, pinSpec(t), "")
	tables, report := res.Tables, res.Report
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
