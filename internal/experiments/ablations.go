package experiments

import (
	"fmt"
	"io"

	"scalabletcc/internal/core"
	"scalabletcc/tcc"
)

// MessageTable returns the implemented protocol messages as (name,
// description) pairs — the executable form of the paper's Table 1.
func MessageTable() [][2]string {
	var out [][2]string
	for k := 0; k < core.NumMsgKinds; k++ {
		kind := core.MsgKind(k)
		out = append(out, [2]string{kind.String(), kind.Describe()})
	}
	return out
}

// ---------------------------------------------------------------------------
// A1: serialized-commit baseline vs parallel commit.

// BaselineCell compares the bus-based small-scale TCC with Scalable TCC on
// the same workload and processor count.
type BaselineCell struct {
	App             string
	Procs           int
	ScalableCycles  uint64
	BaselineCycles  uint64
	ScalableSpeedup float64 // vs 1-processor scalable run
	BaselineSpeedup float64 // vs 1-processor baseline run
	BusBusyFraction float64 // how saturated the baseline's commit bus is
}

var baseline = matrix[[]BaselineCell]{
	plan: plan{name: "baseline", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"commitbound", "volrend", "equake", "SPECjbb2000"}) {
			for _, procs := range o.Procs {
				jobs = append(jobs,
					Job{App: app, Procs: procs},
					Job{App: app, Procs: procs, Protocol: "baseline"})
			}
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]BaselineCell, error) {
		var cells []BaselineCell
		for i := 0; i < len(jobs); i += 2 {
			res, bres := outs[i].Proto.Scalable, outs[i+1].Proto.Baseline
			pair := i / 2
			first := i - 2*(pair%len(o.Procs)) // the app's first sweep point
			scalBase := uint64(outs[first].Proto.Scalable.Cycles)
			busBase := uint64(outs[first+1].Proto.Baseline.Cycles)
			cells = append(cells, BaselineCell{
				App:             jobs[i].App,
				Procs:           jobs[i].Procs,
				ScalableCycles:  uint64(res.Cycles),
				BaselineCycles:  uint64(bres.Cycles),
				ScalableSpeedup: float64(scalBase) / float64(res.Cycles),
				BaselineSpeedup: float64(busBase) / float64(bres.Cycles),
				BusBusyFraction: float64(bres.BusBusy) / float64(bres.Cycles),
			})
		}
		return cells, nil
	},
}

// BaselineComparison runs both designs across the processor sweep. With no
// explicit app list it uses the commit-intensity spectrum: commit-bound,
// volrend (commit-heavy), equake (communication-heavy), SPECjbb
// (embarrassingly parallel).
func BaselineComparison(opts Options) ([]BaselineCell, error) { return baseline.run(opts) }

// PrintBaseline renders the A1 ablation.
func PrintBaseline(w io.Writer, cells []BaselineCell) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tScalable speedup\tBus-TCC speedup\tBus busy")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.0f%%\n",
			c.App, c.Procs, c.ScalableSpeedup, c.BaselineSpeedup, 100*c.BusBusyFraction)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// A2: word-level vs line-level conflict detection.

// GranularityRow compares violation behaviour under the two speculative
// tracking granularities of §3.1.
type GranularityRow struct {
	App            string
	Procs          int
	WordViolations uint64
	LineViolations uint64
	WordCycles     uint64
	LineCycles     uint64
	LineSlowdown   float64
}

var granularity = matrix[[]GranularityRow]{
	plan: plan{name: "granularity", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"falseshare", "equake", "water-nsquared", "barnes"}) {
			jobs = append(jobs,
				Job{App: app, Procs: o.MaxProcs},
				Job{
					App:    app,
					Procs:  o.MaxProcs,
					Knobs:  map[string]any{"granularity": "line"},
					Mutate: func(c *tcc.Config) { c.LineGranularity = true },
				})
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]GranularityRow, error) {
		var rows []GranularityRow
		for i := 0; i < len(jobs); i += 2 {
			word, line := outs[i].Proto.Scalable, outs[i+1].Proto.Scalable
			rows = append(rows, GranularityRow{
				App:            jobs[i].App,
				Procs:          o.MaxProcs,
				WordViolations: word.Violations,
				LineViolations: line.Violations,
				WordCycles:     uint64(word.Cycles),
				LineCycles:     uint64(line.Cycles),
				LineSlowdown:   float64(line.Cycles) / float64(word.Cycles),
			})
		}
		return rows, nil
	},
}

// Granularity runs each app at opts.MaxProcs under both granularities. The
// falseshare stress profile shows the extreme case.
func Granularity(opts Options) ([]GranularityRow, error) { return granularity.run(opts) }

// PrintGranularity renders the A2 ablation.
func PrintGranularity(w io.Writer, rows []GranularityRow) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tViolations (word)\tViolations (line)\tLine-mode slowdown")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2fx\n",
			r.App, r.Procs, r.WordViolations, r.LineViolations, r.LineSlowdown)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// A3: deferred probe responses vs repeated probing.

// ProbeRow compares the §3.3 probe optimization against naive re-probing.
type ProbeRow struct {
	App              string
	Procs            int
	DeferredCycles   uint64
	RepeatedCycles   uint64
	RepeatedSlowdown float64
	// Probe message counts come out in the commit-class traffic.
	DeferredCommitBytes uint64
	RepeatedCommitBytes uint64
}

var probes = matrix[[]ProbeRow]{
	plan: plan{name: "probes", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"commitbound", "volrend", "equake"}) {
			jobs = append(jobs,
				Job{App: app, Procs: o.MaxProcs},
				Job{
					App:    app,
					Procs:  o.MaxProcs,
					Knobs:  map[string]any{"probing": "repeated"},
					Mutate: func(c *tcc.Config) { c.RepeatedProbing = true },
				})
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]ProbeRow, error) {
		var rows []ProbeRow
		for i := 0; i < len(jobs); i += 2 {
			def, rep := outs[i].Proto.Scalable, outs[i+1].Proto.Scalable
			rows = append(rows, ProbeRow{
				App:                 jobs[i].App,
				Procs:               o.MaxProcs,
				DeferredCycles:      uint64(def.Cycles),
				RepeatedCycles:      uint64(rep.Cycles),
				RepeatedSlowdown:    float64(rep.Cycles) / float64(def.Cycles),
				DeferredCommitBytes: def.Traffic.BytesByClass[0],
				RepeatedCommitBytes: rep.Traffic.BytesByClass[0],
			})
		}
		return rows, nil
	},
}

// Probes runs commit-bound workloads under both probe policies.
func Probes(opts Options) ([]ProbeRow, error) { return probes.run(opts) }

// PrintProbes renders the A3 ablation.
func PrintProbes(w io.Writer, rows []ProbeRow) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tDeferred cycles\tRepeated cycles\tSlowdown\tCommit bytes (def)\tCommit bytes (rep)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2fx\t%d\t%d\n",
			r.App, r.Procs, r.DeferredCycles, r.RepeatedCycles, r.RepeatedSlowdown,
			r.DeferredCommitBytes, r.RepeatedCommitBytes)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// A4: write-back vs write-through commit.

// WriteBackRow compares commit data movement policies.
type WriteBackRow struct {
	App                  string
	Procs                int
	WriteBackBPI         float64 // total bytes/instr, write-back commit
	WriteThroughBPI      float64 // total bytes/instr, write-through commit
	TrafficAmplification float64
}

var writeback = matrix[[]WriteBackRow]{
	plan: plan{name: "writeback", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"swim", "tomcatv", "radix", "barnes"}) {
			jobs = append(jobs,
				Job{App: app, Procs: o.MaxProcs},
				Job{
					App:    app,
					Procs:  o.MaxProcs,
					Knobs:  map[string]any{"commit_data": "write-through"},
					Mutate: func(c *tcc.Config) { c.WriteThroughCommit = true },
				})
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]WriteBackRow, error) {
		var rows []WriteBackRow
		for i := 0; i < len(jobs); i += 2 {
			wb, wt := outs[i].Proto.Scalable, outs[i+1].Proto.Scalable
			rows = append(rows, WriteBackRow{
				App:                  jobs[i].App,
				Procs:                o.MaxProcs,
				WriteBackBPI:         wb.BytesPerInstr(),
				WriteThroughBPI:      wt.BytesPerInstr(),
				TrafficAmplification: wt.BytesPerInstr() / wb.BytesPerInstr(),
			})
		}
		return rows, nil
	},
}

// WriteBack runs each app under both commit data policies.
func WriteBack(opts Options) ([]WriteBackRow, error) { return writeback.run(opts) }

// PrintWriteBack renders the A4 ablation.
func PrintWriteBack(w io.Writer, rows []WriteBackRow) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tWrite-back B/instr\tWrite-through B/instr\tAmplification")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.2fx\n",
			r.App, r.Procs, r.WriteBackBPI, r.WriteThroughBPI, r.TrafficAmplification)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// A5: directory cache capacity.

// DirCacheRow measures sensitivity to the directory-cache size — the
// paper's Table 3 claim that per-application directory working sets "fit
// comfortably" in a modest directory cache.
type DirCacheRow struct {
	App      string
	Procs    int
	Entries  int // 0 = unbounded
	Misses   uint64
	Cycles   uint64
	Slowdown float64 // vs the unbounded directory cache
}

// dirCacheCapacities is the A5 sweep; the unbounded entry leads each series
// as the normalization base.
var dirCacheCapacities = []int{0, 8192, 1024, 128}

var dircache = matrix[[]DirCacheRow]{
	plan: plan{name: "dircache", jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"barnes", "radix", "SPECjbb2000"}) {
			for _, entries := range dirCacheCapacities {
				e := entries
				jobs = append(jobs, Job{
					App:    app,
					Procs:  o.MaxProcs,
					Knobs:  map[string]any{"dir_cache_entries": e},
					Mutate: func(c *tcc.Config) { c.DirCacheEntries = e },
				})
			}
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]DirCacheRow, error) {
		var rows []DirCacheRow
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			base := outs[i-i%len(dirCacheCapacities)].Proto.Scalable // the unbounded run
			rows = append(rows, DirCacheRow{
				App:      j.App,
				Procs:    o.MaxProcs,
				Entries:  j.Knobs["dir_cache_entries"].(int),
				Misses:   res.DirCacheMisses,
				Cycles:   uint64(res.Cycles),
				Slowdown: float64(res.Cycles) / float64(base.Cycles),
			})
		}
		return rows, nil
	},
}

// DirCache sweeps directory-cache capacities for apps with small and large
// directory working sets.
func DirCache(opts Options) ([]DirCacheRow, error) { return dircache.run(opts) }

// PrintDirCache renders the A5 ablation.
func PrintDirCache(w io.Writer, rows []DirCacheRow) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tDir-cache entries\tMisses\tSlowdown vs unbounded")
	for _, r := range rows {
		size := fmt.Sprintf("%d", r.Entries)
		if r.Entries == 0 {
			size = "unbounded"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.2fx\n", r.App, r.Procs, size, r.Misses, r.Slowdown)
	}
	tw.Flush()
}
