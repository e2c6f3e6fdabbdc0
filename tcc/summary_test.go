package tcc

import (
	"strings"
	"testing"
)

func TestProfileByNameErr(t *testing.T) {
	p, err := ProfileByNameErr("barnes")
	if err != nil || p.Name != "barnes" {
		t.Fatalf("ProfileByNameErr(barnes) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByNameErr("no-such-app"); err == nil {
		t.Fatal("unknown profile did not error")
	} else if !strings.Contains(err.Error(), `unknown profile "no-such-app"`) {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestSummarizerSharedAccessor: both machines expose the same digest
// through the Summarizer interface, with fields matching the full results.
func TestSummarizerSharedAccessor(t *testing.T) {
	prof := MustProfile("commitbound").Scale(0.05)

	res, err := Run(DefaultConfig(4), prof.Build(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	pres, err := RunProtocol("baseline", DefaultConfig(4), prof.Build(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	bres := pres.Baseline

	for _, tc := range []struct {
		name string
		r    Summarizer
	}{
		{"scalable", res},
		{"baseline", bres},
	} {
		s := tc.r.Summary()
		if s.Cycles == 0 || s.Commits == 0 || s.Instructions == 0 {
			t.Errorf("%s: empty summary %+v", tc.name, s)
		}
		if s.Breakdown.Total() == 0 {
			t.Errorf("%s: empty breakdown", tc.name)
		}
	}
	if s := res.Summary(); s.Cycles != uint64(res.Cycles) || s.Commits != res.Commits ||
		s.Violations != res.Violations || s.Instructions != res.Instr {
		t.Errorf("scalable summary %+v does not match results", s)
	}
	if s := bres.Summary(); s.Cycles != uint64(bres.Cycles) || s.Commits != bres.Commits {
		t.Errorf("baseline summary %+v does not match results", s)
	}
}
