package fuzz

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scalabletcc/internal/harness"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/tape"
	"scalabletcc/tcc"
)

// Options configures a fuzz campaign.
type Options struct {
	Duration time.Duration // total wall-clock budget
	Seed     uint64        // generator seed (campaigns are repeatable up to the time budget)
	Jobs     int           // parallel workers; <1 = GOMAXPROCS

	// CaseTimeout is the wall-clock deadline per case. A case still running
	// when it expires stops at its next cycle boundary and is classed
	// "hang". 0 = 2 minutes.
	CaseTimeout time.Duration

	// ShrinkBudget bounds the simulations spent shrinking one failure.
	// 0 = 200.
	ShrinkBudget int

	// MaxFailures stops the campaign after this many distinct failures have
	// been shrunk and taped. 0 = 3.
	MaxFailures int

	// Protocols restricts the machine-model rotation to the named registry
	// protocols. Empty = the generator's default weighted mix.
	Protocols []string

	// OutDir receives one repro tape per failure. "" = no tapes written.
	OutDir string

	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Failure is one fuzz-found failure, shrunk and taped.
type Failure struct {
	Class      string
	Detail     string
	Original   Case
	Shrunk     Case
	ShrinkRuns int
	TapePath   string // "" if no OutDir
}

// Report summarizes a campaign.
type Report struct {
	Cases    int
	Clean    int
	Failures []Failure
	Elapsed  time.Duration
}

// outcome is one case's classified result.
type outcome struct {
	c      Case
	class  string
	detail string
}

// Campaign generates and runs adversarial cases until the time budget is
// spent or MaxFailures failures have been found, shrinking and taping each
// failure. The returned error covers campaign-infrastructure problems and
// ctx being done, which stops the running cases at their next cycle
// boundary; protocol failures are reported in the Report.
func Campaign(ctx context.Context, opts Options) (*Report, error) {
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	caseTimeout := opts.CaseTimeout
	if caseTimeout <= 0 {
		caseTimeout = 2 * time.Minute
	}
	shrinkBudget := opts.ShrinkBudget
	if shrinkBudget <= 0 {
		shrinkBudget = 200
	}
	maxFailures := opts.MaxFailures
	if maxFailures <= 0 {
		maxFailures = 3
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, p := range opts.Protocols {
		if _, err := tcc.ProtocolByNameErr(p); err != nil {
			return nil, fmt.Errorf("fuzz: %w", err)
		}
	}
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("fuzz: creating tape dir: %w", err)
		}
	}

	// runCase runs one case under the case deadline and classifies it.
	runCase := func(c *Case) (class, detail string) {
		cctx, cancel := context.WithTimeout(ctx, caseTimeout)
		defer cancel()
		err := Run(cctx, c)
		switch class = Class(err); class {
		case "":
			return "", ""
		case "hang":
			return class, fmt.Sprintf("no result within %v", caseTimeout)
		}
		return class, err.Error()
	}
	classify := func(c *Case) string {
		cl, _ := runCase(c)
		return cl
	}

	rep := &Report{}
	start := time.Now()
	deadline := start.Add(opts.Duration)
	rng := sim.NewRNG(opts.Seed)
	for batch := 0; time.Now().Before(deadline) && len(rep.Failures) < maxFailures; batch++ {
		n := jobs * 4
		cases := make([]Case, n)
		batchRNG := rng.Derive(0xBA7C4, uint64(batch))
		for i := range cases {
			cases[i] = Gen(batchRNG, opts.Protocols...)
		}
		// Jobs classify internally and never return an error: one bad case
		// must not discard its batch.
		outs, err := harness.Map(harness.Config{Workers: jobs}, cases,
			func(_ int, c Case) (outcome, error) {
				cl, detail := runCase(&c)
				return outcome{c: c, class: cl, detail: detail}, nil
			})
		if err != nil {
			return nil, fmt.Errorf("fuzz: worker pool: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.Cases += n
		for _, o := range outs {
			if o.class == "" {
				rep.Clean++
				continue
			}
			logf("case %s failed [%s]: %s", o.c.Name, o.class, o.detail)
			f := Failure{Class: o.class, Detail: o.detail, Original: o.c}
			sr := Shrink(o.c, o.class, shrinkBudget, classify)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			f.Shrunk, f.ShrinkRuns = sr.Case, sr.Runs
			logf("shrunk to %s in %d runs (%d reductions accepted)", sr.Case.Name, sr.Runs, sr.Steps)
			if opts.OutDir != "" {
				path, err := writeTape(opts.OutDir, &f)
				if err != nil {
					return rep, err
				}
				f.TapePath = path
				logf("repro tape: %s", path)
			}
			rep.Failures = append(rep.Failures, f)
			if len(rep.Failures) >= maxFailures {
				break
			}
		}
		logf("batch %d: %d/%d cases clean (%v elapsed)", batch, rep.Clean, rep.Cases, time.Since(start).Round(time.Second))
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// writeTape records a shrunken failure as a repro tape in dir.
func writeTape(dir string, f *Failure) (string, error) {
	r, err := tape.NewRepro("fuzz-case", f.Shrunk.Name, f.Shrunk)
	if err != nil {
		return "", err
	}
	r.Failure = f.Class
	r.Expect = f.Class
	r.Detail = f.Detail
	path := filepath.Join(dir, fmt.Sprintf("fuzz-%s-%x.json", sanitizeClass(f.Class), f.Shrunk.Seed))
	if err := r.Save(path); err != nil {
		return "", fmt.Errorf("fuzz: writing tape: %w", err)
	}
	return path, nil
}

// ReplayTape loads a repro tape and re-runs its case, returning an error if
// the observed class differs from the tape's expectation.
func ReplayTape(path string) error {
	r, err := tape.LoadRepro(path)
	if err != nil {
		return err
	}
	var c Case
	if err := r.Payload(&c); err != nil {
		return err
	}
	got := Class(Run(context.Background(), &c))
	if got != r.Expect {
		return fmt.Errorf("fuzz: tape %s: replay produced class %q, tape expects %q", path, got, r.Expect)
	}
	return nil
}
