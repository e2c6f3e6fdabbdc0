// The machine-readable sink: every simulation an experiment runs becomes one
// Cell, and a sweep's cells assemble into a versioned Report (the
// BENCH_sweep.json trajectory). The schema is deliberately uniform across
// experiments — (app, procs, config) key, run summary, traffic
// decomposition, and a series-relative speedup — so downstream tooling can
// consume any sweep without per-figure parsing.

package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

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

// Cell is the machine-readable record of one simulation. Config, Summary,
// Traffic and Events hold the json.Marshal bytes of the run's values: the
// Summary wire form decodes lossily (breakdown fractions round), so a
// resumed sweep replays the bytes instead of round-tripping structs.
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
	Config json.RawMessage `json:"config,omitempty"`
	// SpeedupVsBase normalizes cycles to the first cell of the same
	// (experiment, app, protocol) series — the 1-processor run in fig7,
	// the 1-cycle-per-hop run in fig8, the unbounded cache in dircache.
	SpeedupVsBase float64 `json:"speedup_vs_base"`
	// Summary carries cycles, instructions, commits, violations, and the
	// breakdown fractions in the versioned tcc.Summary wire form.
	Summary json.RawMessage `json:"summary"`
	// Traffic decomposes remote bytes by class (mesh machines only).
	Traffic json.RawMessage `json:"traffic,omitempty"`
	// Events holds per-kind protocol-event totals (Options.CountEvents;
	// tccbench -events). Additive: ReportVersion is unchanged.
	Events json.RawMessage `json:"events,omitempty"`
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

// entry is one finished cell as a sweep keeps it, in memory and as one
// element of its checkpoint file's entry: everything the report needs
// except the speedup, which depends on the series base. Cycles is
// duplicated as a number so the speedup is computed from it, never from
// the raw summary.
type entry struct {
	Experiment string          `json:"experiment"`
	Index      int             `json:"index"`
	App        string          `json:"app"`
	Procs      int             `json:"procs"`
	Machine    string          `json:"machine"`
	Protocol   string          `json:"protocol"`
	Config     json.RawMessage `json:"config,omitempty"`
	Cycles     uint64          `json:"cycles"`
	Summary    json.RawMessage `json:"summary"`
	Traffic    json.RawMessage `json:"traffic,omitempty"`
	Events     json.RawMessage `json:"events,omitempty"`
}

// newEntry renders one finished cell.
func newEntry(experiment string, index int, j Job, out RunResult) (entry, error) {
	pr := out.Proto
	e := entry{
		Experiment: experiment,
		Index:      index,
		App:        j.App,
		Procs:      j.Procs,
		Machine:    j.protocol(),
		Protocol:   j.protocol(),
		Cycles:     pr.Summary.Cycles,
	}
	if e.Protocol == "tcc" {
		e.Machine = "scalable"
	}
	var err error
	raw := func(v any) json.RawMessage {
		b, merr := json.Marshal(v)
		if merr != nil && err == nil {
			err = merr
		}
		return b
	}
	if len(j.Knobs) > 0 {
		e.Config = raw(j.Knobs)
	}
	e.Summary = raw(pr.Summary)
	if t := traffic(pr); t != nil {
		e.Traffic = raw(t)
	}
	if len(out.Events) > 0 {
		e.Events = raw(out.Events)
	}
	return e, err
}

// traffic decomposes a mesh machine's remote bytes; the bus baseline has
// no mesh and gets nil.
func traffic(pr *tcc.ProtocolResults) *Traffic {
	var ms *mesh.Stats
	switch {
	case pr.Scalable != nil:
		ms = &pr.Scalable.Traffic
	case pr.TL2 != nil:
		ms = &pr.TL2.Traffic
	case pr.Eager != nil:
		ms = &pr.Eager.Traffic
	default:
		return nil
	}
	t := &Traffic{
		CommitBytes:    ms.BytesByClass[mesh.ClassCommit],
		MissBytes:      ms.BytesByClass[mesh.ClassMiss],
		WriteBackBytes: ms.BytesByClass[mesh.ClassWriteBack],
		SharedBytes:    ms.BytesByClass[mesh.ClassShared],
		TotalBytes:     ms.TotalBytes(),
	}
	if instr := pr.Summary.Instructions; instr > 0 {
		t.BytesPerInstr = float64(t.TotalBytes) / float64(instr)
	}
	return t
}

// entries holds a sweep's finished cells, sorted by experiment and job
// index. A resume pre-loads them from the checkpoint file (load);
// Options.OnCell adds to them from the worker goroutines (put).
type entries struct {
	mu   sync.Mutex
	kept []keptEntry
	err  error  // the first cell that failed to render
	gen  uint64 // checkpoint images built
	// save, set when the sweep is checkpointed, replaces the checkpoint
	// file's entry with the concatenation of pieces (runner.WriteSnapshot)
	// and logs a failure. Calls hold wmu, never mu.
	save func(pieces ...[]byte)

	wmu     sync.Mutex
	written uint64 // the newest image generation save was called with
}

// keptEntry is one finished cell and, when the sweep is checkpointed, its
// JSON encoding.
type keptEntry struct {
	entry
	raw []byte
}

var (
	openBracket  = []byte("[")
	comma        = []byte(",")
	closeBracket = []byte("]")
)

// put keeps one finished cell; a cell that failed to render (err != nil)
// fails the report instead. On a checkpointed sweep it then replaces the
// checkpoint file's entry with a JSON array of every cell kept so far: the
// image is built under mu and written outside it (write), so one worker's
// write does not hold up another's cell. A failed write is not retried:
// the next cell's write carries every finished cell, and a resume reruns
// only the cells no write reached.
func (s *entries) put(e entry, err error) {
	var raw []byte
	if err == nil && s.save != nil {
		raw, err = json.Marshal(e)
	}
	if gen, pieces := s.keep(e, raw, err); pieces != nil {
		s.write(gen, pieces)
	}
}

// keep records a finished cell or the first error and, on a checkpointed
// sweep, returns the checkpoint image of every cell kept so far with its
// generation number.
func (s *entries) keep(e entry, raw []byte, err error) (uint64, [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return 0, nil
	}
	s.add(e, raw)
	if s.save == nil {
		return 0, nil
	}
	s.gen++
	pieces := make([][]byte, 0, 2*len(s.kept)+1)
	sep := openBracket
	for _, k := range s.kept {
		pieces = append(pieces, sep, k.raw)
		sep = comma
	}
	return s.gen, append(pieces, closeBracket)
}

// write saves the image of generation gen unless a newer one was already
// saved, so an older array never lands after a newer one and the file only
// ever gains cells.
func (s *entries) write(gen uint64, pieces [][]byte) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if gen < s.written {
		return
	}
	s.written = gen
	s.save(pieces...)
}

// load keeps the cells of a checkpoint entry, the JSON array put writes.
// If any of it does not decode, it keeps none and returns the error.
func (s *entries) load(line []byte) error {
	var raws []json.RawMessage
	if err := json.Unmarshal(line, &raws); err != nil {
		return err
	}
	for _, raw := range raws {
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			s.kept = nil
			return err
		}
		s.add(e, raw)
	}
	return nil
}

// add keeps e, encoded as raw, at its place in the order, in place of a
// cell already kept there; callers hold s.mu or own s.
func (s *entries) add(e entry, raw []byte) {
	i, ok := s.find(e.Experiment, e.Index)
	if ok {
		s.kept[i] = keptEntry{e, raw}
		return
	}
	s.kept = slices.Insert(s.kept, i, keptEntry{e, raw})
}

// find returns where (experiment, index) is kept, or where it would go,
// and whether it is kept; callers hold s.mu or own s.
func (s *entries) find(experiment string, index int) (int, bool) {
	i := sort.Search(len(s.kept), func(i int) bool {
		k := s.kept[i]
		return k.Experiment > experiment || k.Experiment == experiment && k.Index >= index
	})
	return i, i < len(s.kept) && s.kept[i].Experiment == experiment && s.kept[i].Index == index
}

func (s *entries) has(experiment string, index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.find(experiment, index)
	return ok
}

// cells returns an experiment's n cells in index order. Each speedup is
// relative to the first cell of the same (app, protocol) series.
func (s *entries) cells(experiment string, n int) ([]Cell, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	out := make([]Cell, n)
	base := make(map[string]uint64)
	for i := range out {
		j, ok := s.find(experiment, i)
		if !ok {
			return nil, fmt.Errorf("experiments: cell %d of %s is missing", i, experiment)
		}
		e := s.kept[j].entry
		key := e.App + "\x00" + e.Protocol
		b, seen := base[key]
		if !seen {
			base[key] = e.Cycles
			b = e.Cycles
		}
		out[i] = Cell{
			Experiment: e.Experiment,
			App:        e.App,
			Procs:      e.Procs,
			Machine:    e.Machine,
			Protocol:   e.Protocol,
			Config:     e.Config,
			Summary:    e.Summary,
			Traffic:    e.Traffic,
			Events:     e.Events,
		}
		if e.Cycles > 0 {
			out[i].SpeedupVsBase = float64(b) / float64(e.Cycles)
		}
	}
	return out, nil
}
