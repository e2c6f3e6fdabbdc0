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
	"scalabletcc/internal/core"
	"scalabletcc/internal/eager"
	"scalabletcc/internal/rival"
	"scalabletcc/internal/tl2"
	"scalabletcc/internal/verify"
)

// TL2Results holds the counters only a TL2-style STM run keeps: version
// clock round trips and mesh traffic.
type TL2Results = tl2.Results

// EagerResults holds the counters only an eager-detection HTM run keeps:
// NACK splits and mesh traffic.
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
// model-specific detail. Summary and CommitLog are the run's only copy of
// the digest and the log: a rival's typed result holds just the counters
// that model alone keeps (bus occupancy, clock contention, NACK splits,
// mesh traffic), while Scalable is the scalable machine's full Results.
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
	build func(cc core.Config, prog Program, collectLog bool) (ProtocolSystem, error)
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
		build: buildBaseline,
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
	e, err := protocolByName(name)
	return e.info, err
}

func protocolByName(name string) (protocolEntry, error) {
	for _, e := range protocolRegistry {
		if e.info.Name == name {
			return e, nil
		}
	}
	return protocolEntry{}, fmt.Errorf("tcc: unknown protocol %q (valid: %s)",
		name, strings.Join(ProtocolNames(), ", "))
}

// NewSystemFor builds a machine of the named protocol running prog under
// cfg. Every model is built from the one machine cfg compiles to, so the
// line size, cache shapes and latencies a comparison holds fixed are the
// same for all of them, and every model is refused the same bad machines:
// one NewSystemFor accepts builds without a panic. A knob a model has no
// analog for is ignored by that model:
//
//   - baseline: HopLatency, Torus, DirLatency, DirCacheEntries,
//     StarveRetainAfter, RepeatedProbing and WriteThroughCommit. Its
//     ordered bus is 2 × LinkBytesPerCycle wide.
//   - tl2 and eager: DirCacheEntries, LineGranularity, StarveRetainAfter,
//     RepeatedProbing and WriteThroughCommit.
//
// Shards selects the scalable machine's engine; the other models reject a
// non-zero value.
func NewSystemFor(protocol string, cfg Config, prog Program) (ProtocolSystem, error) {
	e, err := protocolByName(protocol)
	if err != nil {
		return nil, err
	}
	cc, err := cfg.compile(protocol)
	if err != nil {
		return nil, err
	}
	return e.build(cc, prog, cfg.CollectCommitLog)
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

func buildScalable(cc core.Config, prog Program, collectLog bool) (ProtocolSystem, error) {
	sys, err := newSystem(cc, prog, collectLog)
	if err != nil {
		return nil, err
	}
	return &protoScalable{sys: sys}, nil
}

func (p *protoScalable) Run() (*ProtocolResults, error) { return scalableResults(p.sys.Run()) }

func (p *protoScalable) Observe(o Observer)      { p.sys.Observe(o) }
func (p *protoScalable) AuditFinalMemory() error { return p.sys.AuditFinalMemory() }

// scalableResults wraps a scalable run's results (or its error).
func scalableResults(res *Results, err error) (*ProtocolResults, error) {
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

// --- the rivals: baseline, tl2 and eager ---

// protoRival runs any rival machine. The embedded Machine supplies
// Observe, AuditFinalMemory, the run and its digest; detail attaches the
// protocol's own counters to the results.
type protoRival struct {
	*rival.Machine
	detail func(*ProtocolResults)
}

func newProtoRival(m *rival.Machine, collectLog bool, detail func(*ProtocolResults)) *protoRival {
	m.CollectCommitLog(collectLog)
	return &protoRival{Machine: m, detail: detail}
}

func (p *protoRival) Run() (*ProtocolResults, error) {
	if err := p.Simulate(); err != nil {
		return nil, err
	}
	res := &ProtocolResults{Protocol: p.Name, Summary: p.Summary(), CommitLog: p.CommitLog}
	p.detail(res)
	return res, nil
}

func buildBaseline(cc core.Config, prog Program, collectLog bool) (ProtocolSystem, error) {
	sys, err := baseline.NewSystem(cc, prog)
	if err != nil {
		return nil, err
	}
	return newProtoRival(&sys.Machine, collectLog, func(r *ProtocolResults) { r.Baseline = sys.Results() }), nil
}

func buildTL2(cc core.Config, prog Program, collectLog bool) (ProtocolSystem, error) {
	sys, err := tl2.NewSystem(cc, prog)
	if err != nil {
		return nil, err
	}
	return newProtoRival(&sys.Machine, collectLog, func(r *ProtocolResults) { r.TL2 = sys.Results() }), nil
}

func buildEager(cc core.Config, prog Program, collectLog bool) (ProtocolSystem, error) {
	sys, err := eager.NewSystem(cc, prog)
	if err != nil {
		return nil, err
	}
	return newProtoRival(&sys.Machine, collectLog, func(r *ProtocolResults) { r.Eager = sys.Results() }), nil
}
