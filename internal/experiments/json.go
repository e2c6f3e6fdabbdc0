// The machine-readable sink: every simulation an experiment runs can be
// captured as one Cell, and a sweep's cells assemble into a versioned
// Report (the BENCH_sweep.json trajectory). The schema is deliberately
// uniform across experiments — (app, procs, config) key, run summary,
// traffic decomposition, and a series-relative speedup — so downstream
// tooling can consume any sweep without per-figure parsing.

package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"scalabletcc/internal/mesh"
	"scalabletcc/tcc"
)

const (
	// ReportSchema identifies the document type.
	ReportSchema = "scalabletcc/bench-sweep"
	// ReportVersion is bumped whenever a field changes meaning or is
	// removed; additions keep the version. v2 adds the protocol tag to
	// every cell (the machine field widened from two values to the full
	// protocol registry, which is a change of meaning).
	ReportVersion = 2
)

// Cell is the machine-readable record of one simulation.
type Cell struct {
	Experiment string `json:"experiment"`
	App        string `json:"app"`
	Procs      int    `json:"procs"`
	// Machine is "scalable" (the paper's design), "baseline" (the bus-based
	// small-scale TCC), or a registry protocol name ("tl2", "eager").
	Machine string `json:"machine"`
	// Protocol is the registry name of the machine model ("tcc",
	// "baseline", "tl2", "eager").
	Protocol string `json:"protocol"`
	// Config holds the experiment's knob settings for this cell (for
	// example {"hop_latency": 4}); absent means the default machine.
	Config map[string]any `json:"config,omitempty"`
	// SpeedupVsBase normalizes cycles to the first cell of the same
	// (experiment, app, machine) series — the 1-processor run in fig7,
	// the 1-cycle-per-hop run in fig8, the unbounded cache in dircache.
	SpeedupVsBase float64 `json:"speedup_vs_base"`
	// WallMS is the cell's wall-clock time in milliseconds, present only for
	// experiments that run cells sequentially and time them (the scaling
	// study). Additive: ReportVersion is unchanged.
	WallMS float64 `json:"wall_ms,omitempty"`
	// Summary carries cycles, instructions, commits, violations, and the
	// breakdown fractions in the versioned tcc.Summary wire form.
	Summary tcc.Summary `json:"summary"`
	// Traffic decomposes remote bytes by class (scalable machine only).
	Traffic *Traffic `json:"traffic,omitempty"`
	// Events holds per-kind protocol-event totals (Options.CountEvents;
	// tccbench -events). Additive: ReportVersion is unchanged.
	Events map[string]uint64 `json:"events,omitempty"`
}

// Traffic is the Figure 9 decomposition of one run's remote bytes.
type Traffic struct {
	CommitBytes    uint64  `json:"commit_bytes"`
	MissBytes      uint64  `json:"miss_bytes"`
	WriteBackBytes uint64  `json:"write_back_bytes"`
	SharedBytes    uint64  `json:"shared_bytes"`
	TotalBytes     uint64  `json:"total_bytes"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
}

// Recorder accumulates cells across experiment runs. The zero value is
// ready to use; methods on a nil *Recorder are no-ops, so the runners can
// record unconditionally.
type Recorder struct {
	mu    sync.Mutex
	cells []Cell
}

// cellParts builds the cell for one (job, result) pair — everything except
// SpeedupVsBase, which depends on the series base and is filled by the
// caller. Checkpoint resume reuses this so a resumed report's cells are
// computed by the same code path as a fresh run's.
func cellParts(experiment string, j Job, out RunResult) Cell {
	s := out.summary()
	protocol := j.protocol()
	machine := protocol
	if protocol == "tcc" {
		machine = "scalable"
	}
	c := Cell{
		Experiment: experiment,
		App:        j.App,
		Procs:      j.Procs,
		Machine:    machine,
		Protocol:   protocol,
		Config:     j.Knobs,
		Summary:    s,
		Events:     out.Events,
	}
	if out.Wall > 0 {
		c.WallMS = float64(out.Wall) / float64(time.Millisecond)
	}
	if res := out.Results; res != nil {
		c.Traffic = &Traffic{
			CommitBytes:    res.Traffic.BytesByClass[mesh.ClassCommit],
			MissBytes:      res.Traffic.BytesByClass[mesh.ClassMiss],
			WriteBackBytes: res.Traffic.BytesByClass[mesh.ClassWriteBack],
			SharedBytes:    res.Traffic.BytesByClass[mesh.ClassShared],
			TotalBytes:     res.Traffic.TotalBytes(),
			BytesPerInstr:  res.BytesPerInstr(),
		}
	} else if pr := out.Proto; pr != nil {
		var ms *mesh.Stats
		switch {
		case pr.Scalable != nil:
			ms = &pr.Scalable.Traffic
		case pr.TL2 != nil:
			ms = &pr.TL2.Traffic
		case pr.Eager != nil:
			ms = &pr.Eager.Traffic
		}
		if ms != nil {
			t := &Traffic{
				CommitBytes:    ms.BytesByClass[mesh.ClassCommit],
				MissBytes:      ms.BytesByClass[mesh.ClassMiss],
				WriteBackBytes: ms.BytesByClass[mesh.ClassWriteBack],
				SharedBytes:    ms.BytesByClass[mesh.ClassShared],
				TotalBytes:     ms.TotalBytes(),
			}
			if s.Instructions > 0 {
				t.BytesPerInstr = float64(t.TotalBytes) / float64(s.Instructions)
			}
			c.Traffic = t
		}
	}
	return c
}

// add converts one executed matrix into cells, in job-index order.
func (r *Recorder) add(experiment string, jobs []Job, outs []RunResult) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := make(map[string]uint64) // (app, protocol) -> base cycles
	for i, j := range jobs {
		c := cellParts(experiment, j, outs[i])
		key := j.App + "\x00" + c.Protocol
		b, ok := base[key]
		if !ok {
			base[key] = c.Summary.Cycles
			b = c.Summary.Cycles
		}
		if c.Summary.Cycles > 0 {
			c.SpeedupVsBase = float64(b) / float64(c.Summary.Cycles)
		}
		r.cells = append(r.cells, c)
	}
}

// Cells returns a copy of everything recorded so far, in run order.
func (r *Recorder) Cells() []Cell {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Cell(nil), r.cells...)
}

// Report is the versioned machine-readable document tccbench's -json flag
// emits.
type Report struct {
	Schema   string  `json:"schema"`
	Version  int     `json:"version"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Parallel int     `json:"parallel"`
	Cells    []Cell  `json:"cells"`
}

// Report assembles the recorded cells into the versioned document.
func (r *Recorder) Report(o Options) *Report {
	return &Report{
		Schema:   ReportSchema,
		Version:  ReportVersion,
		Seed:     o.Seed,
		Scale:    o.Scale,
		Parallel: o.Parallel,
		Cells:    r.Cells(),
	}
}

// Write emits the report as indented JSON.
func (rep *Report) Write(w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal report: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
