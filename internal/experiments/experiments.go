// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4), plus the ablations DESIGN.md calls out.
//
// Each experiment declares two things: its job matrix (one Job per
// (app, procs, config) cell) and the reduction of the index-ordered results
// to typed rows. One driver does the rest. It hands the matrix to
// internal/harness, which fans the fully independent simulations across
// Options.Parallel worker goroutines. Because results come back keyed by
// job index, never completion order, the printed tables are byte-identical
// whatever the worker count. Options.OnCell sees each finished cell, which
// is how the sweep executor builds the machine-readable report.
// cmd/tccbench is a thin flag wrapper around the sweep executor.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"scalabletcc/internal/harness"
	"scalabletcc/internal/mesh"
	"scalabletcc/internal/stats"
	"scalabletcc/tcc"
)

// watchdogCycles aborts any single run that wedges (deadlock insurance for
// full-size sweeps; no legitimate run approaches it).
const watchdogCycles = 50_000_000_000

// Options scope an experiment run. Construct with DefaultOptions and
// override fields: scalar fields have no zero-value fallback — Normalize
// rejects an invalid Seed, Scale, MaxProcs, or Parallel loudly instead of
// silently rewriting it — while empty sweep lists (Apps, Procs,
// HopLatencies) mean "the experiment's default set".
type Options struct {
	Apps         []string // profile names; empty = experiment-specific default set
	Protocols    []string // protocol names for the head-to-head sweep; empty = the full registry
	Procs        []int    // processor counts for sweeps; empty = {1,2,4,8,16,32,64}
	MaxProcs     int      // machine size for Table 3 / Figures 8, 9 / ablations
	Scale        float64  // workload scale factor
	Seed         uint64   // simulation seed (must be >= 1)
	Verify       bool     // run the serializability oracle on every run
	HopLatencies []int    // Figure 8 sweep; empty = {1, 2, 4, 8}

	// Parallel is the number of worker goroutines independent simulations
	// are fanned across; 1 runs the matrix sequentially.
	Parallel int

	// JobTimeout bounds each simulation's wall-clock time (0 = none): a
	// cell still running when it expires stops at its next cycle boundary
	// and fails the matrix.
	JobTimeout time.Duration

	// Progress, if non-nil, is called after each completed simulation with
	// (completed, total). Calls are serialized; completed counts up in order.
	Progress func(done, total int)

	// CountEvents attaches a counting observer to every run and reports
	// per-kind protocol-event totals in RunResult.Events (and the JSON
	// report's "events" field). Observation is passive; cycle counts are
	// unchanged.
	CountEvents bool

	// Ctx, if non-nil, stops the matrix once it is done: every running
	// simulation stops at its next cycle boundary, no further one runs,
	// and the matrix fails with an error wrapping the context's error.
	Ctx context.Context

	// OnCell, if non-nil, is called from the worker goroutine the moment one
	// matrix cell completes successfully, with the experiment name and the
	// cell's job index. The sweep executor uses it to collect the report's
	// cells and to append checkpoint entries, making each finished cell
	// durable immediately. Implementations must be safe for concurrent use.
	OnCell func(experiment string, index int, j Job, out RunResult)
}

// DefaultOptions returns the paper's evaluation defaults: full-size
// workloads, seed 1, a 64-processor top machine, and one worker per
// available CPU.
func DefaultOptions() Options {
	return Options{
		MaxProcs: 64,
		Scale:    1.0,
		Seed:     1,
		Parallel: runtime.GOMAXPROCS(0),
	}
}

// Normalize validates o in place and fills the sweep-list defaults. It
// reports — rather than rewrites — invalid scalar fields, so a caller that
// forgot DefaultOptions fails loudly on the first run.
func (o *Options) Normalize() error {
	if o.Seed == 0 {
		return fmt.Errorf("experiments: Seed 0 is invalid (seeds start at 1; build Options with DefaultOptions)")
	}
	if o.Scale <= 0 {
		return fmt.Errorf("experiments: Scale %v is invalid (must be > 0)", o.Scale)
	}
	if o.MaxProcs < 1 {
		return fmt.Errorf("experiments: MaxProcs %d is invalid (must be >= 1)", o.MaxProcs)
	}
	if o.Parallel < 1 {
		return fmt.Errorf("experiments: Parallel %d is invalid (must be >= 1; DefaultOptions uses GOMAXPROCS)", o.Parallel)
	}
	if o.JobTimeout < 0 {
		return fmt.Errorf("experiments: negative JobTimeout %v", o.JobTimeout)
	}
	for _, app := range o.Apps {
		if _, err := tcc.ProfileByNameErr(app); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	for _, p := range o.Protocols {
		if _, err := tcc.ProtocolByNameErr(p); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if len(o.Procs) == 0 {
		o.Procs = []int{1, 2, 4, 8, 16, 32, 64}
	}
	for _, p := range o.Procs {
		if p < 1 {
			return fmt.Errorf("experiments: processor count %d is invalid", p)
		}
	}
	if len(o.HopLatencies) == 0 {
		o.HopLatencies = []int{1, 2, 4, 8}
	}
	for _, h := range o.HopLatencies {
		if h < 1 {
			return fmt.Errorf("experiments: hop latency %d is invalid", h)
		}
	}
	return nil
}

// appsOr returns the explicit app list or the experiment's default set.
func (o Options) appsOr(def []string) []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return def
}

// protocolsOr returns the explicit protocol list or the full registry.
func (o Options) protocolsOr() []string {
	if len(o.Protocols) > 0 {
		return o.Protocols
	}
	return tcc.ProtocolNames()
}

// allAppNames returns the paper's eleven Table 3 applications.
func allAppNames() []string {
	var names []string
	for _, p := range tcc.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// ---------------------------------------------------------------------------
// The job matrix: what an experiment declares, what the harness executes.

// Job is one cell of an experiment's matrix: an application at a machine
// size under an optional configuration variation.
type Job struct {
	App   string
	Procs int

	// Knobs label the variation for the machine-readable sink (for
	// example {"hop_latency": 4}); nil means the default machine.
	Knobs map[string]any

	// Mutate applies the variation to the machine's config.
	Mutate func(*tcc.Config)

	// Protocol selects the machine model from the tcc protocol registry
	// ("tcc", "baseline", "tl2", "eager"); empty means "tcc".
	Protocol string
}

// protocol returns the job's effective registry name.
func (j Job) protocol() string {
	if j.Protocol != "" {
		return j.Protocol
	}
	return "tcc"
}

// RunResult is one executed Job. Proto is the registry's result for every
// protocol; detail only the paper's design has (traffic classes, Table 3
// percentiles) is on Proto.Scalable. Events holds per-kind protocol-event
// totals when Options.CountEvents is set.
type RunResult struct {
	Proto  *tcc.ProtocolResults
	Events map[string]uint64
}

// runJob executes one matrix cell under o.Ctx and the cell's JobTimeout.
// The config is validated after the mutate hook so a bad sweep knob fails
// with a config error instead of deep inside core.
func (o Options) runJob(j Job) (RunResult, error) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cellCtx := ctx
	if o.JobTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, o.JobTimeout)
		defer cancel()
	}
	prof, err := tcc.ProfileByNameErr(j.App)
	if err != nil {
		return RunResult{}, fmt.Errorf("experiments: %w", err)
	}
	cfg := tcc.DefaultConfig(j.Procs)
	cfg.Seed = o.Seed
	cfg.MaxCycles = watchdogCycles
	cfg.CollectCommitLog = o.Verify
	if j.Mutate != nil {
		j.Mutate(&cfg)
	}
	cell := fmt.Sprintf("%s %s on %d procs", j.protocol(), j.App, j.Procs)
	sys, err := tcc.NewSystemFor(j.protocol(), cfg, prof.Scale(o.Scale).Build(j.Procs, cfg.Seed))
	if err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s: invalid config: %w", cell, err)
	}
	var counter *tcc.CountingObserver
	if o.CountEvents {
		counter = tcc.NewCountingObserver()
		sys.Observe(counter)
	}
	res, err := tcc.RunCancelable(cellCtx, sys, sys.Run)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		return RunResult{}, fmt.Errorf("experiments: %s: timed out after %v", cell, o.JobTimeout)
	}
	if err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s: %w", cell, err)
	}
	if o.Verify {
		if viols := res.Verify(); len(viols) != 0 {
			return RunResult{}, fmt.Errorf("experiments: %s: %d serializability violations (first: %v)",
				cell, len(viols), viols[0])
		}
	}
	out := RunResult{Proto: res}
	if counter != nil {
		out.Events = counter.ByName()
	}
	return out, nil
}

// plan is what an experiment declares besides its reduction: its job
// matrix and its quirks.
type plan struct {
	name string
	// jobs declares the matrix for normalized options; nil for the static
	// tables, which run no simulation.
	jobs func(o Options) []Job
	// maxProcs, when non-zero, is the machine size a sweep uses when its
	// spec leaves max_procs unset.
	maxProcs int
}

// prepare normalizes o for the plan and declares its matrix.
func (p plan) prepare(o Options) (Options, []Job, error) {
	if err := o.Normalize(); err != nil {
		return o, nil, err
	}
	var jobs []Job
	if p.jobs != nil {
		jobs = p.jobs(o)
	}
	return o, jobs, nil
}

// runMatrix is the one runner: it executes jobs[i] for every i in todo
// through the harness and returns the results in todo order. Cells fan
// across o.Parallel workers, and each successful cell is handed to
// o.OnCell under the experiment's name.
func (o Options) runMatrix(name string, jobs []Job, todo []int) ([]RunResult, error) {
	return harness.Map(harness.Config{
		Workers:    o.Parallel,
		OnProgress: o.Progress,
	}, todo, func(_ int, i int) (RunResult, error) {
		out, err := o.runJob(jobs[i])
		if err != nil {
			return RunResult{}, err
		}
		if o.OnCell != nil {
			o.OnCell(name, i, jobs[i], out)
		}
		return out, nil
	})
}

// every lists the indices 0..n-1.
func every(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// matrix is one experiment's declaration: its plan and the reduction of
// the index-ordered results to typed rows.
type matrix[R any] struct {
	plan
	reduce func(o Options, jobs []Job, outs []RunResult) (R, error)
}

// run is the driver behind every typed runner: prepare the options, run
// the whole matrix and reduce it.
func (m matrix[R]) run(o Options) (R, error) {
	var rows R
	o, jobs, err := m.prepare(o)
	if err != nil {
		return rows, err
	}
	outs, err := o.runMatrix(m.name, jobs, every(len(jobs)))
	if err != nil {
		return rows, err
	}
	return m.reduce(o, jobs, outs)
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// BreakdownString renders a breakdown as percentage components in the
// paper's stacking order.
func BreakdownString(b stats.Breakdown) string {
	return fmt.Sprintf("useful=%4.1f%% miss=%4.1f%% idle=%4.1f%% commit=%4.1f%% viol=%4.1f%%",
		100*b.Fraction(stats.Useful), 100*b.Fraction(stats.CacheMiss),
		100*b.Fraction(stats.Idle), 100*b.Fraction(stats.Commit),
		100*b.Fraction(stats.Violation))
}

// ---------------------------------------------------------------------------
// Table 1: the protocol message vocabulary.

// Table1 prints the implemented coherence-message table (the paper's
// Table 1).
func Table1(w io.Writer) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Message\tDescription")
	for _, m := range MessageTable() {
		fmt.Fprintf(tw, "%s\t%s\n", m[0], m[1])
	}
	tw.Flush()
}

// Table2 prints the simulated-architecture parameters (the paper's
// Table 2).
func Table2(w io.Writer, cfg tcc.Config) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Feature\tDescription")
	fmt.Fprintf(tw, "CPU\t%d single-issue cores, CPI 1.0 (plus memory stalls)\n", cfg.Procs)
	fmt.Fprintf(tw, "L1\t%d KB, %d-byte lines, %d-way, 1-cycle latency\n", cfg.L1Size>>10, cfg.LineSize, cfg.L1Ways)
	fmt.Fprintf(tw, "L2\t%d KB, %d-byte lines, %d-way, 6-cycle latency\n", cfg.L2Size>>10, cfg.LineSize, cfg.L2Ways)
	fmt.Fprintf(tw, "ICN\t2-D grid, %d cycles/hop, %d B/cycle per link\n", cfg.HopLatency, cfg.LinkBytesPerCycle)
	fmt.Fprintf(tw, "Main memory\t%d cycles latency\n", cfg.MemLatency)
	fmt.Fprintf(tw, "Directory\tfull-bit-vector sharers, first-touch homing, %d-cycle directory cache\n", cfg.DirLatency)
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Table 3: application fingerprints.

// Table3Row is one application's measured transactional fingerprint.
type Table3Row struct {
	App              string
	TxInstrP90       uint64
	WrSetKBP90       float64
	RdSetKBP90       float64
	OpsPerWordWr     float64
	DirsPerCommitP90 uint64
	WorkingSetP90    uint64
	OccupancyP90     uint64
}

// table3Jobs declares one cell per application at the top machine size;
// Figure 9 runs the same matrix.
func table3Jobs(o Options) []Job {
	var jobs []Job
	for _, app := range o.appsOr(allAppNames()) {
		jobs = append(jobs, Job{App: app, Procs: o.MaxProcs})
	}
	return jobs
}

var table3 = matrix[[]Table3Row]{
	// The paper reports Table 3 at 32 CPUs.
	plan: plan{name: "table3", jobs: table3Jobs, maxProcs: 32},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]Table3Row, error) {
		var rows []Table3Row
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			var wrWordsPerTx float64
			if res.Commits > 0 {
				wrWordsPerTx = float64(res.WrSetBytesP90) / 4
			}
			ops := 0.0
			if wrWordsPerTx > 0 {
				ops = float64(res.TxInstrP90) / wrWordsPerTx
			}
			rows = append(rows, Table3Row{
				App:              j.App,
				TxInstrP90:       res.TxInstrP90,
				WrSetKBP90:       float64(res.WrSetBytesP90) / 1024,
				RdSetKBP90:       float64(res.RdSetBytesP90) / 1024,
				OpsPerWordWr:     ops,
				DirsPerCommitP90: res.DirsPerCommitP90,
				WorkingSetP90:    res.DirWorkingSetP90,
				OccupancyP90:     res.DirOccupancyP90,
			})
		}
		return rows, nil
	},
}

// Table3 measures each application's fingerprint at opts.MaxProcs (the
// paper reports the 32-processor case).
func Table3(opts Options) ([]Table3Row, error) { return table3.run(opts) }

// PrintTable3 renders Table 3 rows.
func PrintTable3(w io.Writer, rows []Table3Row) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tTxSize p90\tWrSet p90\tRdSet p90\tOps/WordWr\tDirs/commit p90\tWorkingSet p90\tOccupancy p90")
	fmt.Fprintln(tw, "\t(instr)\t(KB)\t(KB)\t\t\t(entries)\t(cycles)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.1f\t%d\t%d\t%d\n",
			r.App, r.TxInstrP90, r.WrSetKBP90, r.RdSetKBP90, r.OpsPerWordWr,
			r.DirsPerCommitP90, r.WorkingSetP90, r.OccupancyP90)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 6: single-processor execution-time breakdown.

// Fig6Row is one application's 1-CPU breakdown.
type Fig6Row struct {
	App       string
	Cycles    uint64
	Breakdown stats.Breakdown
	// CommitFraction is the only overhead a 1-CPU TCC machine adds over a
	// conventional uniprocessor; the paper reports ~1-3%.
	CommitFraction float64
}

var fig6 = matrix[[]Fig6Row]{
	plan: plan{name: "fig6", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr(allAppNames()) {
			jobs = append(jobs, Job{App: app, Procs: 1})
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]Fig6Row, error) {
		var rows []Fig6Row
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			rows = append(rows, Fig6Row{
				App:            j.App,
				Cycles:         uint64(res.Cycles),
				Breakdown:      res.Breakdown,
				CommitFraction: res.Breakdown.Fraction(stats.Commit),
			})
		}
		return rows, nil
	},
}

// Fig6 runs every application on one processor.
func Fig6(opts Options) ([]Fig6Row, error) { return fig6.run(opts) }

// PrintFig6 renders Figure 6.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCycles\tBreakdown (normalized execution time, 1 CPU)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", r.App, r.Cycles, BreakdownString(r.Breakdown))
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 7: scaling 1 -> 64 processors.

// Fig7Cell is one (application, processor count) measurement.
type Fig7Cell struct {
	App        string
	Procs      int
	Cycles     uint64
	Speedup    float64 // vs the same app on 1 processor
	Breakdown  stats.Breakdown
	Violations uint64
}

var fig7 = matrix[[]Fig7Cell]{
	plan: plan{name: "fig7", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr(allAppNames()) {
			for _, procs := range o.Procs {
				jobs = append(jobs, Job{App: app, Procs: procs})
			}
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]Fig7Cell, error) {
		var cells []Fig7Cell
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			base := outs[i-i%len(o.Procs)].Proto.Scalable // the app's first sweep point
			cells = append(cells, Fig7Cell{
				App:        j.App,
				Procs:      j.Procs,
				Cycles:     uint64(res.Cycles),
				Speedup:    res.Speedup(base),
				Breakdown:  res.Breakdown,
				Violations: res.Violations,
			})
		}
		return cells, nil
	},
}

// Fig7 sweeps processor counts for every application; each app's first
// sweep point is its normalization base.
func Fig7(opts Options) ([]Fig7Cell, error) { return fig7.run(opts) }

// PrintFig7 renders Figure 7: one row per (app, procs) with the speedup the
// paper prints on top of each bar.
func PrintFig7(w io.Writer, cells []Fig7Cell) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tSpeedup\tCycles\tBreakdown")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%d\t%s\n",
			c.App, c.Procs, c.Speedup, c.Cycles, BreakdownString(c.Breakdown))
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 8: communication-latency sensitivity.

// Fig8Cell is one (application, cycles-per-hop) measurement at the largest
// machine size.
type Fig8Cell struct {
	App       string
	HopCycles int
	Cycles    uint64
	// SlowdownVsHop1 is execution time normalized to the 1-cycle-per-hop
	// run (the paper normalizes to a single processor; the shape — who
	// degrades and by how much — is the reproduction target).
	SlowdownVsHop1 float64
	Breakdown      stats.Breakdown
}

var fig8 = matrix[[]Fig8Cell]{
	plan: plan{name: "fig8", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr(allAppNames()) {
			for _, hop := range o.HopLatencies {
				h := hop
				jobs = append(jobs, Job{
					App:    app,
					Procs:  o.MaxProcs,
					Knobs:  map[string]any{"hop_latency": h},
					Mutate: func(c *tcc.Config) { c.HopLatency = h },
				})
			}
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]Fig8Cell, error) {
		var cells []Fig8Cell
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			base := outs[i-i%len(o.HopLatencies)].Proto.Scalable // the app's first hop point
			cells = append(cells, Fig8Cell{
				App:            j.App,
				HopCycles:      j.Knobs["hop_latency"].(int),
				Cycles:         uint64(res.Cycles),
				SlowdownVsHop1: float64(res.Cycles) / float64(base.Cycles),
				Breakdown:      res.Breakdown,
			})
		}
		return cells, nil
	},
}

// Fig8 sweeps mesh hop latency at opts.MaxProcs processors.
func Fig8(opts Options) ([]Fig8Cell, error) { return fig8.run(opts) }

// PrintFig8 renders Figure 8.
func PrintFig8(w io.Writer, cells []Fig8Cell) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCycles/hop\tSlowdown vs 1 cycle/hop\tBreakdown")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%d\t%.2fx\t%s\n", c.App, c.HopCycles, c.SlowdownVsHop1, BreakdownString(c.Breakdown))
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 9: remote traffic per instruction, by class.

// Fig9Row is one application's traffic decomposition at the largest machine.
type Fig9Row struct {
	App            string
	CommitOverhead float64 // bytes per committed instruction
	Miss           float64
	WriteBack      float64
	Shared         float64
	Total          float64
}

var fig9 = matrix[[]Fig9Row]{
	plan: plan{name: "fig9", jobs: table3Jobs},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]Fig9Row, error) {
		var rows []Fig9Row
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			rows = append(rows, Fig9Row{
				App:            j.App,
				CommitOverhead: res.ClassBytesPerInstr(mesh.ClassCommit),
				Miss:           res.ClassBytesPerInstr(mesh.ClassMiss),
				WriteBack:      res.ClassBytesPerInstr(mesh.ClassWriteBack),
				Shared:         res.ClassBytesPerInstr(mesh.ClassShared),
				Total:          res.BytesPerInstr(),
			})
		}
		return rows, nil
	},
}

// Fig9 measures per-class network traffic at opts.MaxProcs processors.
func Fig9(opts Options) ([]Fig9Row, error) { return fig9.run(opts) }

// PrintFig9 renders Figure 9.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCommitOverhead\tMiss\tWriteBack\tShared\tTotal (bytes/instr)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			r.App, r.CommitOverhead, r.Miss, r.WriteBack, r.Shared, r.Total)
	}
	tw.Flush()
}
