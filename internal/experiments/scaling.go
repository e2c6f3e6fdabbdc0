// The sharded-kernel scaling study: the first measurement the simulator
// makes about itself rather than the protocol. Every (procs, shards) cell
// runs the same workload on the sharded epoch kernel with a different
// Shards value; simulated results must be identical down the shard axis
// (shard-count independence is the engine's contract, and this experiment
// enforces it on every run), so the only thing that varies is wall-clock
// time. The engine runs on the System's one kernel whatever the Shards
// value (DESIGN.md §31), so the curve is flat up to host noise; the sweep
// keeps the engine's cost and its independence contract measured side by
// side.

package experiments

import (
	"fmt"
	"io"
	"time"

	"scalabletcc/tcc"
)

// ScalingCell is one (app, procs, shards) measurement.
type ScalingCell struct {
	App    string
	Procs  int
	Shards int
	Cycles uint64
	Wall   time.Duration
	// Speedup is wall-clock speedup vs the same (app, procs) at the first
	// shard count of the sweep (normally 1).
	Speedup    float64
	Commits    uint64
	Violations uint64
}

var scaling = matrix[[]ScalingCell]{
	// Shard counts that do not tile a mesh (non-divisors of the proc count)
	// are skipped rather than failed: the default proc sweep includes sizes
	// smaller than the default shard sweep's top end.
	plan: plan{name: "scaling", timed: true, jobs: func(o Options) []Job {
		var jobs []Job
		for _, app := range o.appsOr([]string{"hotspot"}) {
			for _, procs := range o.Procs {
				for _, shards := range o.Shards {
					if shards > procs || procs%shards != 0 {
						continue
					}
					n := shards
					jobs = append(jobs, Job{
						App:    app,
						Procs:  procs,
						Knobs:  map[string]any{"shards": n},
						Mutate: func(c *tcc.Config) { c.Shards = n },
					})
				}
			}
		}
		return jobs
	}},
	reduce: func(o Options, jobs []Job, outs []RunResult) ([]ScalingCell, error) {
		cells := make([]ScalingCell, len(jobs))
		baseWall := make(map[string]time.Duration) // (app, procs) -> first shard point
		baseCycles := make(map[string]uint64)
		for i, j := range jobs {
			res := outs[i].Proto.Scalable
			key := fmt.Sprintf("%s\x00%d", j.App, j.Procs)
			if _, ok := baseWall[key]; !ok {
				baseWall[key] = outs[i].Wall
				baseCycles[key] = uint64(res.Cycles)
			}
			// Worker-count independence is a hard contract, not a statistic: a
			// shard count that moves the simulated outcome is an engine bug and
			// fails the whole experiment.
			if uint64(res.Cycles) != baseCycles[key] {
				return nil, fmt.Errorf(
					"experiments: scaling %s on %d procs: shards=%d simulated %d cycles, shards=%d simulated %d — the sharded kernel must be worker-count independent",
					j.App, j.Procs, j.Knobs["shards"].(int), res.Cycles,
					jobs[0].Knobs["shards"].(int), baseCycles[key])
			}
			c := ScalingCell{
				App:        j.App,
				Procs:      j.Procs,
				Shards:     j.Knobs["shards"].(int),
				Cycles:     uint64(res.Cycles),
				Wall:       outs[i].Wall,
				Commits:    res.Commits,
				Violations: res.Violations,
			}
			if outs[i].Wall > 0 {
				c.Speedup = float64(baseWall[key]) / float64(outs[i].Wall)
			}
			cells[i] = c
		}
		return cells, nil
	},
}

// Scaling sweeps the sharded kernel's Shards value over opts.Procs x
// opts.Shards. Cells run strictly sequentially whatever opts.Parallel says:
// overlapping cells would make every wall-clock number measure scheduler
// contention instead of the engine.
func Scaling(opts Options) ([]ScalingCell, error) { return scaling.run(opts) }

// PrintScaling renders the scaling study, one row per (app, procs, shards).
func PrintScaling(w io.Writer, cells []ScalingCell) {
	tw := newTab(w)
	fmt.Fprintln(tw, "Application\tCPUs\tShards\tWall\tSpeedup\tSimCycles\tCommits\tViolations")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%.2fx\t%d\t%d\t%d\n",
			c.App, c.Procs, c.Shards, c.Wall.Round(time.Millisecond), c.Speedup,
			c.Cycles, c.Commits, c.Violations)
	}
	tw.Flush()
}
