// Protocol registry: every machine model the simulator can run — the
// scalable directory TCC, the bus-based small-scale TCC baseline, the
// TL2-style lazy STM, and the eager-detection HTM — behind one constructor.
// All four run the same deterministic Programs on the shared simulation
// kernel and feed the same serializability/final-memory oracles, so a
// protocol name plus one Config is enough to stand up any of them.

package tcc

import (
	"fmt"
	"strings"

	"scalabletcc/internal/baseline"
	"scalabletcc/internal/eager"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/tl2"
	"scalabletcc/internal/verify"
)

// TL2Results summarizes a TL2-style STM run.
type TL2Results = tl2.Results

// EagerResults summarizes an eager-detection HTM run.
type EagerResults = eager.Results

// ProtocolInfo describes one registered machine model.
type ProtocolInfo struct {
	// Name is the registry key ("tcc", "baseline", "tl2", "eager").
	Name string
	// Detection is when conflicts are found: "lazy" (commit-time) or
	// "eager" (access-time).
	Detection string
	// Description is a one-line summary for -protocol list output.
	Description string
}

// ProtocolSystem is an assembled machine of any registered protocol, ready
// to run one program. All models support passive event observation and the
// final-memory audit (the latter requires Config.CollectCommitLog).
type ProtocolSystem interface {
	Run() (*ProtocolResults, error)
	Observe(o Observer)
	AuditFinalMemory() error
}

// ProtocolResults is the common result shape RunProtocol returns for every
// model: the protocol-tagged Summary digest, the commit log (when
// collected), and exactly one non-nil typed result for callers that need
// model-specific detail (directory traffic classes, bus occupancy, clock
// contention, NACK splits).
type ProtocolResults struct {
	Protocol  string
	Summary   Summary
	CommitLog []verify.Record

	Scalable *Results
	Baseline *BaselineResults
	TL2      *TL2Results
	Eager    *EagerResults
}

// Verify replays the run's commit log in TID order and returns every
// serializability violation (nil means the execution was serializable).
// The run must have been configured with CollectCommitLog.
func (r *ProtocolResults) Verify() []SerializabilityViolation {
	return verify.Check(r.CommitLog)
}

type protocolEntry struct {
	info  ProtocolInfo
	build func(cfg Config, prog Program) (ProtocolSystem, error)
}

// protocolRegistry is ordered: list output and cross-protocol sweeps follow
// this order.
var protocolRegistry = []protocolEntry{
	{
		info: ProtocolInfo{
			Name:        "tcc",
			Detection:   "lazy",
			Description: "Scalable TCC: directory-parallel two-phase commit, write-back (the paper's design)",
		},
		build: buildScalable,
	},
	{
		info: ProtocolInfo{
			Name:        "baseline",
			Detection:   "lazy",
			Description: "small-scale TCC: single commit token, write-through broadcast bus",
		},
		build: buildBaselineProto,
	},
	{
		info: ProtocolInfo{
			Name:        "tl2",
			Detection:   "lazy",
			Description: "TL2-style STM: global version clock, commit-time write locks, read-set validation",
		},
		build: buildTL2,
	},
	{
		info: ProtocolInfo{
			Name:        "eager",
			Detection:   "eager",
			Description: "eager-detection HTM: access-time directory registration, requester-loses NACKs",
		},
		build: buildEager,
	},
}

// Protocols returns the registered machine models in registry order.
func Protocols() []ProtocolInfo {
	out := make([]ProtocolInfo, len(protocolRegistry))
	for i, e := range protocolRegistry {
		out[i] = e.info
	}
	return out
}

// ProtocolNames returns the registry keys in order (for flag help and
// error messages).
func ProtocolNames() []string {
	names := make([]string, len(protocolRegistry))
	for i, e := range protocolRegistry {
		names[i] = e.info.Name
	}
	return names
}

// ProtocolByNameErr looks up a registered protocol, reporting an unknown
// name as an error that lists the valid registry entries.
func ProtocolByNameErr(name string) (ProtocolInfo, error) {
	for _, e := range protocolRegistry {
		if e.info.Name == name {
			return e.info, nil
		}
	}
	return ProtocolInfo{}, fmt.Errorf("tcc: unknown protocol %q (valid: %s)",
		name, strings.Join(ProtocolNames(), ", "))
}

// NewSystemFor builds a machine of the named protocol running prog under
// cfg. The one Config drives every model: protocol-independent knobs
// (processors, caches, line size, latencies, seed) map directly, and knobs a
// model has no analog for (e.g. mesh topology on the bus baseline, directory
// sizing on the STM) are ignored by that model.
func NewSystemFor(protocol string, cfg Config, prog Program) (ProtocolSystem, error) {
	if _, err := ProtocolByNameErr(protocol); err != nil {
		return nil, err
	}
	for _, e := range protocolRegistry {
		if e.info.Name == protocol {
			return e.build(cfg, prog)
		}
	}
	panic("unreachable")
}

// RunProtocol is the one-shot helper: build a machine of the named protocol
// and run prog under cfg.
func RunProtocol(protocol string, cfg Config, prog Program) (*ProtocolResults, error) {
	s, err := NewSystemFor(protocol, cfg, prog)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// --- scalable (the paper's design) ---

type protoScalable struct{ sys *System }

func buildScalable(cfg Config, prog Program) (ProtocolSystem, error) {
	sys, err := NewSystem(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &protoScalable{sys: sys}, nil
}

func (p *protoScalable) Run() (*ProtocolResults, error) {
	res, err := p.sys.Run()
	if err != nil {
		return nil, err
	}
	return &ProtocolResults{
		Protocol:  "tcc",
		Summary:   res.Summary(),
		CommitLog: res.CommitLog,
		Scalable:  res,
	}, nil
}

func (p *protoScalable) Observe(o Observer)      { p.sys.Observe(o) }
func (p *protoScalable) AuditFinalMemory() error { return p.sys.AuditFinalMemory() }

// RunCheckpointed surfaces kernel-level checkpointing through the
// ProtocolSystem interface; like the sampler and profiler hooks, executeRun
// discovers it via optional-interface assertion, so protocols without
// snapshot support correctly fail the assertion.
func (p *protoScalable) RunCheckpointed(every uint64, fn func(*Checkpoint) error) (*ProtocolResults, error) {
	res, err := p.sys.RunCheckpointed(every, fn)
	if err != nil {
		return nil, err
	}
	return &ProtocolResults{
		Protocol:  "tcc",
		Summary:   res.Summary(),
		CommitLog: res.CommitLog,
		Scalable:  res,
	}, nil
}

// EnableSampler and EnableConflictProfiler surface the scalable machine's
// extra instrumentation through the ProtocolSystem interface; RunJob
// discovers them via optional-interface assertion (they exist only on this
// model, so other protocols correctly fail the assertion).
func (p *protoScalable) EnableSampler(every uint64) error { return p.sys.EnableSampler(every) }
func (p *protoScalable) EnableConflictProfiler() *ConflictProfiler {
	return p.sys.EnableConflictProfiler()
}

// rejectShards reports the sharded-engine request as unsupported for the
// named protocol. Only the scalable directory machine runs on the
// epoch-parallel executor; the other models would silently drop the knob,
// and a knob that silently does nothing is worse than an error.
func rejectShards(protocol string, cfg Config) error {
	if cfg.Shards != 0 {
		return fmt.Errorf("%s: Config.Shards is only supported by the tcc protocol, got %d",
			protocol, cfg.Shards)
	}
	return nil
}

// --- baseline (bus-based small-scale TCC) ---

type protoBaseline struct{ sys *baseline.System }

// baselineFromConfig derives the bus machine from the unified Config: the
// ordered bus gets the bandwidth of two mesh links (16 B/cycle at the
// default link width). baseline.NewSystem validates the result.
func baselineFromConfig(c Config) baseline.Config {
	bc := baseline.DefaultConfig(c.Procs)
	bc.BusBytesPerCycle = 2 * c.LinkBytesPerCycle
	bc.MemLatency = sim.Time(c.MemLatency)
	bc.LineGranularity = c.LineGranularity
	bc.Seed = c.Seed
	bc.MaxCycles = sim.Time(c.MaxCycles)
	return bc
}

func buildBaselineProto(cfg Config, prog Program) (ProtocolSystem, error) {
	if err := rejectShards("baseline", cfg); err != nil {
		return nil, err
	}
	sys, err := baseline.NewSystem(baselineFromConfig(cfg), prog)
	if err != nil {
		return nil, err
	}
	sys.CollectCommitLog(cfg.CollectCommitLog)
	return &protoBaseline{sys: sys}, nil
}

func (p *protoBaseline) Run() (*ProtocolResults, error) {
	res, err := p.sys.Run()
	if err != nil {
		return nil, err
	}
	return &ProtocolResults{
		Protocol:  "baseline",
		Summary:   res.Summary(),
		CommitLog: res.CommitLog,
		Baseline:  res,
	}, nil
}

func (p *protoBaseline) Observe(o Observer)      { p.sys.Observe(o) }
func (p *protoBaseline) AuditFinalMemory() error { return p.sys.AuditFinalMemory() }

// --- tl2 (lazy STM) ---

type protoTL2 struct{ sys *tl2.System }

func tl2FromConfig(c Config) tl2.Config {
	tc := tl2.DefaultConfig(c.Procs)
	tc.Geometry.LineSize = c.LineSize
	tc.L1Size, tc.L1Ways = c.L1Size, c.L1Ways
	tc.L2Size, tc.L2Ways = c.L2Size, c.L2Ways
	tc.Mesh.HopLatency = sim.Time(c.HopLatency)
	tc.Mesh.LinkBytes = c.LinkBytesPerCycle
	tc.Mesh.Torus = c.Torus
	tc.MemLatency = sim.Time(c.MemLatency)
	tc.DirLatency = sim.Time(c.DirLatency)
	tc.Seed = c.Seed
	tc.MaxCycles = sim.Time(c.MaxCycles)
	return tc
}

func buildTL2(cfg Config, prog Program) (ProtocolSystem, error) {
	if err := rejectShards("tl2", cfg); err != nil {
		return nil, err
	}
	sys, err := tl2.NewSystem(tl2FromConfig(cfg), prog)
	if err != nil {
		return nil, err
	}
	sys.CollectCommitLog(cfg.CollectCommitLog)
	return &protoTL2{sys: sys}, nil
}

func (p *protoTL2) Run() (*ProtocolResults, error) {
	res, err := p.sys.Run()
	if err != nil {
		return nil, err
	}
	return &ProtocolResults{
		Protocol:  "tl2",
		Summary:   res.Summary(),
		CommitLog: res.CommitLog,
		TL2:       res,
	}, nil
}

func (p *protoTL2) Observe(o Observer)      { p.sys.Observe(o) }
func (p *protoTL2) AuditFinalMemory() error { return p.sys.AuditFinalMemory() }

// --- eager (eager-detection HTM) ---

type protoEager struct{ sys *eager.System }

func eagerFromConfig(c Config) eager.Config {
	ec := eager.DefaultConfig(c.Procs)
	ec.Geometry.LineSize = c.LineSize
	ec.L1Size, ec.L1Ways = c.L1Size, c.L1Ways
	ec.L2Size, ec.L2Ways = c.L2Size, c.L2Ways
	ec.Mesh.HopLatency = sim.Time(c.HopLatency)
	ec.Mesh.LinkBytes = c.LinkBytesPerCycle
	ec.Mesh.Torus = c.Torus
	ec.MemLatency = sim.Time(c.MemLatency)
	ec.DirLatency = sim.Time(c.DirLatency)
	ec.Seed = c.Seed
	ec.MaxCycles = sim.Time(c.MaxCycles)
	return ec
}

func buildEager(cfg Config, prog Program) (ProtocolSystem, error) {
	if err := rejectShards("eager", cfg); err != nil {
		return nil, err
	}
	sys, err := eager.NewSystem(eagerFromConfig(cfg), prog)
	if err != nil {
		return nil, err
	}
	sys.CollectCommitLog(cfg.CollectCommitLog)
	return &protoEager{sys: sys}, nil
}

func (p *protoEager) Run() (*ProtocolResults, error) {
	res, err := p.sys.Run()
	if err != nil {
		return nil, err
	}
	return &ProtocolResults{
		Protocol:  "eager",
		Summary:   res.Summary(),
		CommitLog: res.CommitLog,
		Eager:     res,
	}, nil
}

func (p *protoEager) Observe(o Observer)      { p.sys.Observe(o) }
func (p *protoEager) AuditFinalMemory() error { return p.sys.AuditFinalMemory() }
