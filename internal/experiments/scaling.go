// The sharded-kernel scaling study: the first measurement the simulator
// makes about itself rather than the protocol. Every (procs, shards) cell
// runs the same workload on the sharded epoch kernel with a different
// Shards value; simulated results must be identical down the shard axis
// (shard-count independence is the engine's contract, and this experiment
// enforces it on every run), so the only thing that varies is wall-clock
// time. Every window runs on one goroutine whatever the Shards value (see
// sim.ShardExec), so the curve is flat up to host noise; the sweep keeps
// the engine's cost and its independence contract measured side by side.

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

// scalingJobs declares the procs x shards grid; o must be normalized.
// Shard counts that do not tile a mesh (non-divisors of the proc count)
// are skipped rather than failed: the default proc sweep includes sizes
// smaller than the default shard sweep's top end.
func scalingJobs(o Options) ([]Job, error) {
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
	return jobs, nil
}

// Scaling sweeps the sharded kernel's Shards value over opts.Procs x
// opts.Shards. Cells run strictly sequentially whatever opts.Parallel says:
// overlapping cells would make every wall-clock number measure scheduler
// contention instead of the engine.
func Scaling(opts Options) ([]ScalingCell, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	jobs, err := scalingJobs(opts)
	if err != nil {
		return nil, err
	}
	outs, err := opts.runMatrixTimed("scaling", jobs)
	if err != nil {
		return nil, err
	}
	cells := make([]ScalingCell, len(jobs))
	baseWall := make(map[string]time.Duration) // (app, procs) -> first shard point
	baseCycles := make(map[string]uint64)
	for i, j := range jobs {
		res := outs[i].Results
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
}

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

// runMatrixTimed is the sequential, wall-timed counterpart of runMatrix:
// one cell at a time in index order, each stamped with its wall-clock
// duration. Checkpointing and progress behave exactly as in runMatrix.
func (o Options) runMatrixTimed(experiment string, jobs []Job) ([]RunResult, error) {
	outs := make([]RunResult, len(jobs))
	for i, j := range jobs {
		if o.Ctx != nil {
			select {
			case <-o.Ctx.Done():
				return nil, o.Ctx.Err()
			default:
			}
		}
		start := time.Now()
		out, err := o.runJob(j)
		if err != nil {
			return nil, err
		}
		out.Wall = time.Since(start)
		if o.OnCell != nil {
			o.OnCell(experiment, i, j, out)
		}
		if o.Progress != nil {
			o.Progress(i+1, len(jobs))
		}
		outs[i] = out
	}
	o.Record.add(experiment, jobs, outs)
	return outs, nil
}
