package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"scalabletcc/tcc"
)

// workload is one named input set. Its set-up builds every input from the
// seed and computes the references the oracles compare against.
type workload struct {
	name  string
	setup func(b *bench) (env, error)
}

// env is a set-up workload, ready to run its closed loop.
type env interface {
	// refs are the reference summaries set-up computed, compared across
	// set-up repeats.
	refs() [][]byte
	// cycles is the simulated cycle count summed over one pass of the
	// workload's cells.
	cycles() uint64
	// loop runs closed-loop operations for at least d.
	loop(b *bench, d time.Duration)
	// corrupt damages one reference summary (self-test only).
	corrupt()
	// programs are the workload's distinct programs on the scalable
	// machine, which the traced run's layer probes execute.
	programs() []cell
	close()
}

var workloads = []workload{
	{"paper-mix", func(b *bench) (env, error) { return newSimEnv(b, paperMix(b.o)) }},
	{"sharded-64p", func(b *bench) (env, error) { return newSimEnv(b, sharded64(b.o)) }},
	{"jobs", func(b *bench) (env, error) {
		e, err := newJobsEnv(b, jobPool(b.o), clients)
		if err != nil {
			return nil, err
		}
		return e, nil
	}},
	{"rivals", func(b *bench) (env, error) { return newSimEnv(b, rivals(b.o)) }},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cell is one simulation: a program (app, procs, scale, seed) on a machine
// (protocol, engine).
type cell struct {
	app      string
	procs    int
	scale    float64
	seed     uint64
	protocol string
	shards   int
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%dp/x%g/s%d/%s/sh%d", c.app, c.procs, c.scale, c.seed, c.protocol, c.shards)
}

// config is the paper's Table 2 machine with the commit log on, so every
// run can be verified.
func (c cell) config() tcc.Config {
	cfg := tcc.DefaultConfig(c.procs)
	cfg.Seed = c.seed
	cfg.Shards = c.shards
	cfg.CollectCommitLog = true
	return cfg
}

func (c cell) program() (tcc.Program, error) {
	p, err := tcc.ProfileByNameErr(c.app)
	if err != nil {
		return nil, err
	}
	return p.Scale(c.scale).Build(c.procs, c.seed), nil
}

// layer names the spans of the cell's machine: "core" for the scalable
// design, the protocol name for the rivals.
func (c cell) layer() string {
	if c.protocol == "tcc" {
		return "core"
	}
	return c.protocol
}

// cellSeed derives a cell's program seed from the workload seed
// (splitmix64), so each seed gives a different, reproducible input set.
func cellSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) | 1
}

// paperMix is six Table 3 applications at 16 and 32 processors on the
// sequential engine.
func paperMix(o options) []cell {
	var cells []cell
	for _, procs := range []int{16, 32} {
		for _, app := range []string{"barnes", "equake", "SPECjbb2000", "volrend", "radix", "swim"} {
			cells = append(cells, cell{app: app, procs: procs, scale: 0.05 * o.scale,
				seed: cellSeed(o.seed, len(cells)), protocol: "tcc"})
		}
	}
	return cells
}

// sharded64 is a high-contention and a low-contention 64-processor program
// on the epoch-parallel engine with two workers.
func sharded64(o options) []cell {
	return []cell{
		{app: "hotspot", procs: 64, scale: 0.1 * o.scale, seed: cellSeed(o.seed, 0), protocol: "tcc", shards: 2},
		{app: "barnes", procs: 64, scale: 0.1 * o.scale, seed: cellSeed(o.seed, 1), protocol: "tcc", shards: 2},
	}
}

// rivals runs two programs on each rival protocol.
func rivals(o options) []cell {
	progs := []cell{
		{app: "equake", procs: 16, scale: 0.1 * o.scale, seed: cellSeed(o.seed, 0)},
		{app: "hotspot", procs: 8, scale: 1 * o.scale, seed: cellSeed(o.seed, 1)},
	}
	var cells []cell
	for _, p := range progs {
		for _, proto := range []string{"tl2", "eager", "baseline"} {
			c := p
			c.protocol = proto
			cells = append(cells, c)
		}
	}
	return cells
}

// simEnv runs simulation cells one at a time.
type simEnv struct {
	cells []cell
	want  [][]byte // reference summary per cell
	total uint64
}

// newSimEnv computes each cell's reference summary: the cell itself, or —
// for a sharded cell — the same program on one shard worker, which every
// worker count must reproduce byte for byte.
func newSimEnv(b *bench, cells []cell) (env, error) {
	e := &simEnv{cells: cells}
	for _, c := range cells {
		ref := c
		if ref.shards > 0 {
			ref.shards = 1
		}
		out, err := runCell(b.tr, ref, 0)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", ref, err)
		}
		b.check(out.violations == 0, "reference %s: %d serializability violations", ref, out.violations)
		e.want = append(e.want, out.summary)
		e.total += out.res.Summary.Cycles
	}
	return e, nil
}

func (e *simEnv) refs() [][]byte { return e.want }
func (e *simEnv) cycles() uint64 { return e.total }
func (e *simEnv) corrupt()       { e.want[0] = append([]byte(nil), "corrupted"...) }
func (e *simEnv) close()         {}

// loop runs whole passes over the cells until d has elapsed, so every
// phase holds each cell equally often.
func (e *simEnv) loop(b *bench, d time.Duration) {
	start := time.Now()
	for {
		for i, c := range e.cells {
			b.op(kindOp, "op", c.String(), func(parent int) (uint64, error) {
				out, err := runCell(b.tr, c, parent)
				if err != nil {
					return 0, err
				}
				if out.violations != 0 {
					return 0, fmt.Errorf("%d serializability violations", out.violations)
				}
				if !bytes.Equal(out.summary, e.want[i]) {
					return 0, fmt.Errorf("summary %s differs from reference %s", out.summary, e.want[i])
				}
				return out.res.Summary.Instructions, nil
			})
		}
		if time.Since(start) >= d {
			return
		}
	}
}

func (e *simEnv) programs() []cell {
	var out []cell
	seen := map[cell]bool{}
	for _, c := range e.cells {
		c.protocol = "tcc"
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// cellOut is one verified simulation.
type cellOut struct {
	summary    []byte // the Summary's pinned wire form
	res        *tcc.ProtocolResults
	violations int
	run        time.Duration
}

// runCell builds, constructs, runs and verifies one cell, with a span
// around each public call.
func runCell(tr *tracer, c cell, parent int) (*cellOut, error) {
	op, layer := c.String(), c.layer()
	var prog tcc.Program
	if _, err := tr.timed("workload.build", op, parent, func() (err error) {
		prog, err = c.program()
		return err
	}); err != nil {
		return nil, err
	}
	var sys tcc.ProtocolSystem
	if _, err := tr.timed(layer+".new", op, parent, func() (err error) {
		sys, err = tcc.NewSystemFor(c.protocol, c.config(), prog)
		return err
	}); err != nil {
		return nil, err
	}
	out := &cellOut{}
	var err error
	if out.run, err = tr.timed(layer+".run", op, parent, func() (err error) {
		out.res, err = sys.Run()
		return err
	}); err != nil {
		return nil, err
	}
	tr.timed("verify", op, parent, func() error {
		if out.res.Scalable != nil {
			out.violations = len(tcc.Verify(out.res.Scalable))
		} else {
			out.violations = len(out.res.Verify())
		}
		return nil
	})
	// Drop the commit logs: results kept for counters must not pin them.
	out.res.CommitLog = nil
	if out.res.Scalable != nil {
		out.res.Scalable.CommitLog = nil
	}
	if out.summary, err = json.Marshal(out.res.Summary); err != nil {
		return nil, err
	}
	return out, nil
}
