// The fuzz job kind: a fuzz campaign as a job-runner executor. Importing
// this package registers "fuzz" with the tcc job registry, so the daemon
// and cmd/tccfuzz both launch campaigns through tcc.RunJob.

package fuzz

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"scalabletcc/internal/runner"
	"scalabletcc/tcc"
)

func init() {
	tcc.RegisterJobKind(runner.KindFuzz, executeFuzz, validateFuzzSpec)
}

// validateFuzzSpec is the registry validator: the envelope already checked
// duration_sec; protocol names and numeric ranges are this package's say.
func validateFuzzSpec(spec *runner.JobSpec) error {
	fz := spec.Fuzz
	for _, p := range fz.Protocols {
		if _, err := tcc.ProtocolByNameErr(p); err != nil {
			return fmt.Errorf("fuzz: %w", err)
		}
	}
	if fz.Jobs < 0 || fz.CaseTimeoutSec < 0 || fz.ShrinkBudget < 0 || fz.MaxFailures < 0 {
		return fmt.Errorf("fuzz: spec numeric fields must be non-negative")
	}
	return nil
}

// jobFailure is the wire form of one shrunk failure in the job result:
// enough of the shrunk case's shape for a client to print or rebuild it.
type jobFailure struct {
	Class      string `json:"class"`
	Detail     string `json:"detail"`
	Case       string `json:"case"`
	Seed       uint64 `json:"seed"`
	Protocol   string `json:"protocol,omitempty"`
	Procs      int    `json:"procs"`
	TxPerProc  int    `json:"tx_per_proc"`
	OpsPerTx   int    `json:"ops_per_tx"`
	Lines      int    `json:"lines"`
	ShrinkRuns int    `json:"shrink_runs"`
	Tape       string `json:"tape,omitempty"`
}

// jobReport is the wire form of a campaign report (JobResult.Fuzz).
type jobReport struct {
	Cases      int          `json:"cases"`
	Clean      int          `json:"clean"`
	ElapsedSec float64      `json:"elapsed_sec"`
	Failures   []jobFailure `json:"failures,omitempty"`
}

// executeFuzz is the "fuzz" job executor. A campaign runs until its
// duration budget is spent or ctx is done, and streams progress through
// jc.Logf.
func executeFuzz(ctx context.Context, spec *runner.JobSpec, jc *runner.JobContext) (*runner.JobResult, error) {
	fz := spec.Fuzz
	opts := Options{
		Duration:     time.Duration(fz.DurationSec) * time.Second,
		Seed:         fz.Seed,
		Jobs:         fz.Jobs,
		CaseTimeout:  time.Duration(fz.CaseTimeoutSec) * time.Second,
		ShrinkBudget: fz.ShrinkBudget,
		MaxFailures:  fz.MaxFailures,
		Protocols:    fz.Protocols,
		OutDir:       fz.OutDir,
		Logf:         jc.Logf,
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	// A relative tape directory resolves against the daemon's state
	// directory (where the queue also keeps this job's checkpoint manifest),
	// so a remote submitter's tapes land somewhere the operator can find.
	if opts.OutDir != "" && !filepath.IsAbs(opts.OutDir) && jc.CheckpointPath != "" {
		opts.OutDir = filepath.Join(filepath.Dir(jc.CheckpointPath), opts.OutDir)
	}
	rep, err := Campaign(ctx, opts)
	if err != nil {
		return nil, err
	}
	out := jobReport{
		Cases:      rep.Cases,
		Clean:      rep.Clean,
		ElapsedSec: rep.Elapsed.Seconds(),
	}
	for _, f := range rep.Failures {
		out.Failures = append(out.Failures, jobFailure{
			Class:      f.Class,
			Detail:     f.Detail,
			Case:       f.Shrunk.Name,
			Seed:       f.Shrunk.Seed,
			Protocol:   f.Shrunk.Protocol,
			Procs:      f.Shrunk.Procs,
			TxPerProc:  f.Shrunk.TxPerProc,
			OpsPerTx:   f.Shrunk.OpsPerTx,
			Lines:      f.Shrunk.Lines,
			ShrinkRuns: f.ShrinkRuns,
			Tape:       f.TapePath,
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("fuzz: marshal job report: %w", err)
	}
	return &runner.JobResult{Kind: runner.KindFuzz, Fuzz: data}, nil
}
