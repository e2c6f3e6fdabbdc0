// Package fuzz is the protocol fuzz campaign: it generates adversarial
// machine configurations and workloads well outside the paper's calibrated
// profiles, runs each under the continuous invariant auditor, and — when a
// case fails — shrinks it to a minimal reproducer and writes a deterministic
// repro tape for regression replay.
//
// Everything here is deterministic: a Case is a pure value, Run(case) always
// produces the same outcome, and the generator is seeded. The only
// nondeterminism in a campaign is which cases a time budget reaches.
package fuzz

import (
	"errors"
	"fmt"
	"strings"

	"scalabletcc/internal/core"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
	"scalabletcc/tcc"
)

// Case is one fuzz input: a full machine configuration plus workload knobs,
// flat and JSON-stable so repro tapes survive refactors of core.Config.
type Case struct {
	Name string `json:"name,omitempty"`
	Seed uint64 `json:"seed"`

	// Protocol selects the machine model from the tcc protocol registry.
	// Empty means "tcc" (the scalable design), so pre-rotation repro tapes
	// replay unchanged.
	Protocol string `json:"protocol,omitempty"`

	// Machine.
	Procs             int  `json:"procs"`
	MeshW             int  `json:"mesh_w"`
	MeshH             int  `json:"mesh_h"`
	Torus             bool `json:"torus,omitempty"`
	HopLatency        int  `json:"hop_latency"`
	L1Bytes           int  `json:"l1_bytes"`
	L2Bytes           int  `json:"l2_bytes"`
	DirCacheEntries   int  `json:"dir_cache_entries,omitempty"`
	LineGranularity   bool `json:"line_granularity,omitempty"`
	WriteThrough      bool `json:"write_through,omitempty"`
	RepeatedProbes    bool `json:"repeated_probes,omitempty"`
	StarveRetainAfter int  `json:"starve_retain_after"`

	// Workload.
	TxPerProc  int  `json:"tx_per_proc"`
	OpsPerTx   int  `json:"ops_per_tx"`
	Lines      int  `json:"lines"`
	HotWords   int  `json:"hot_words,omitempty"` // 1 = hot-single-word contention
	LoadPct    int  `json:"load_pct"`
	StorePct   int  `json:"store_pct"`
	MaxCompute int  `json:"max_compute"`
	SingleHome bool `json:"single_home,omitempty"`

	// Optional injected protocol fault (the fuzzer's self-check): "" or
	// FaultSkipVector.
	Fault      string `json:"fault,omitempty"`
	FaultCycle uint64 `json:"fault_cycle,omitempty"`
	FaultDir   int    `json:"fault_dir,omitempty"`
}

// FaultSkipVector names the test-only Skip-Vector corruption
// (core.InjectSkipVectorFault).
const FaultSkipVector = "skip-vector"

// maxCaseCycles is the per-case simulated-time watchdog. Adversarial cases
// legitimately run long (single hot word, 64 procs); anything past this is
// reported as class "watchdog".
const maxCaseCycles = 500_000_000

// protocol resolves the case's machine model, defaulting to the scalable
// design.
func (c *Case) protocol() string {
	if c.Protocol == "" {
		return "tcc"
	}
	return c.Protocol
}

// Config materializes the machine half of the case.
func (c *Case) Config() core.Config {
	cfg := core.DefaultConfig(c.Procs)
	cfg.Mesh.Width = c.MeshW
	cfg.Mesh.Height = c.MeshH
	cfg.Mesh.Torus = c.Torus
	if c.HopLatency > 0 {
		cfg.Mesh.HopLatency = sim.Time(c.HopLatency)
	}
	cfg.L1Size = c.L1Bytes
	cfg.L2Size = c.L2Bytes
	cfg.DirCacheEntries = c.DirCacheEntries
	cfg.LineGranularity = c.LineGranularity
	cfg.WriteThroughCommit = c.WriteThrough
	cfg.DeferredProbes = !c.RepeatedProbes
	cfg.StarveRetainAfter = c.StarveRetainAfter
	cfg.Seed = c.Seed
	cfg.MaxCycles = maxCaseCycles
	return cfg
}

// ProtoConfig materializes the machine half of the case as the unified
// tcc.Config used for non-tcc protocols. The registry derives a near-square
// mesh from Procs, so MeshW/MeshH reach tcc cases only: a rival case's tape
// records the drawn chain, but the case runs on the near-square mesh (DESIGN
// §19 says why). Every other knob a model honors maps directly.
func (c *Case) ProtoConfig() tcc.Config {
	cfg := tcc.DefaultConfig(c.Procs)
	cfg.Torus = c.Torus
	if c.HopLatency > 0 {
		cfg.HopLatency = c.HopLatency
	}
	cfg.L1Size = c.L1Bytes
	cfg.L2Size = c.L2Bytes
	cfg.DirCacheEntries = c.DirCacheEntries
	cfg.LineGranularity = c.LineGranularity
	cfg.WriteThroughCommit = c.WriteThrough
	cfg.RepeatedProbing = c.RepeatedProbes
	cfg.StarveRetainAfter = c.StarveRetainAfter
	cfg.Seed = c.Seed
	cfg.MaxCycles = maxCaseCycles
	cfg.CollectCommitLog = true
	return cfg
}

// Program materializes the workload half of the case.
func (c *Case) Program() workload.Program {
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("fuzz-%d", c.Seed)
	}
	return workload.Chaos(workload.ChaosSpec{
		Name:       name,
		Procs:      c.Procs,
		TxPerProc:  c.TxPerProc,
		OpsPerTx:   c.OpsPerTx,
		Lines:      c.Lines,
		HotWords:   c.HotWords,
		LoadPct:    c.LoadPct,
		StorePct:   c.StorePct,
		MaxCompute: c.MaxCompute,
		SingleHome: c.SingleHome,
		Seed:       c.Seed,
	})
}

// Validate rejects cases the simulator cannot construct.
func (c *Case) Validate() error {
	if c.Procs < 1 || c.Procs > 64 {
		return fmt.Errorf("fuzz: procs %d out of range [1,64]", c.Procs)
	}
	if c.LoadPct < 0 || c.StorePct < 0 || c.LoadPct+c.StorePct > 100 {
		return fmt.Errorf("fuzz: bad op mix %d%%/%d%%", c.LoadPct, c.StorePct)
	}
	if c.Fault != "" && c.Fault != FaultSkipVector {
		return fmt.Errorf("fuzz: unknown fault %q", c.Fault)
	}
	if c.Fault != "" && c.FaultDir >= c.Procs {
		return fmt.Errorf("fuzz: fault dir %d out of range (%d procs)", c.FaultDir, c.Procs)
	}
	if _, err := tcc.ProtocolByNameErr(c.protocol()); err != nil {
		return fmt.Errorf("fuzz: %w", err)
	}
	if c.Fault != "" && c.protocol() != "tcc" {
		return fmt.Errorf("fuzz: fault injection is tcc-only, case targets %q", c.protocol())
	}
	return c.Config().Validate()
}

// panicError wraps a recovered simulator panic so Class can distinguish it
// from an ordinary run error.
type panicError struct {
	val any
}

func (e *panicError) Error() string { return fmt.Sprintf("fuzz: simulator panicked: %v", e.val) }

// Run executes one case to completion under the continuous invariant
// auditor, then applies the end-of-run oracles (serializability check,
// final-memory audit). A nil return means the case ran clean.
func Run(c *Case) (err error) {
	if verr := c.Validate(); verr != nil {
		return fmt.Errorf("fuzz: invalid case: %w", verr)
	}
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r}
		}
	}()
	if p := c.protocol(); p != "tcc" {
		return runProtocol(c, p)
	}
	sys, err := core.NewSystem(c.Config(), c.Program())
	if err != nil {
		return fmt.Errorf("fuzz: building system: %w", err)
	}
	sys.CollectCommitLog(true)
	sys.EnableAuditor()
	if c.Fault == FaultSkipVector {
		sys.InjectSkipVectorFault(sim.Time(c.FaultCycle), c.FaultDir)
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	if viols := verify.Check(res.CommitLog); len(viols) != 0 {
		return fmt.Errorf("fuzz: %w (first of %d)", viols[0], len(viols))
	}
	if !c.WriteThrough {
		if err := sys.AuditFinalMemory(); err != nil {
			return err
		}
	}
	return nil
}

// runProtocol runs a non-tcc case through the unified protocol registry and
// applies the same end-of-run oracles. The continuous auditor and fault
// injection are core-machine instruments; the rival models are checked by
// the protocol-independent oracles alone.
func runProtocol(c *Case, protocol string) error {
	sys, err := tcc.NewSystemFor(protocol, c.ProtoConfig(), c.Program())
	if err != nil {
		return fmt.Errorf("fuzz: building %s system: %w", protocol, err)
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	if viols := verify.Check(res.CommitLog); len(viols) != 0 {
		return fmt.Errorf("fuzz: %w (first of %d)", viols[0], len(viols))
	}
	return sys.AuditFinalMemory()
}

// Class maps a Run outcome to a stable failure-class string. Shrinking and
// fixture replay key on classes: a shrink candidate is accepted only if it
// fails with the same class, and a checked-in tape must reproduce its
// recorded class. The empty class means a clean run.
func Class(err error) string {
	if err == nil {
		return ""
	}
	var ae *core.AuditError
	if errors.As(err, &ae) {
		return "audit:" + ae.Invariant
	}
	var v verify.Violation
	if errors.As(err, &v) {
		return "verify:" + v.Kind.String()
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return "panic"
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "watchdog"):
		return "watchdog"
	case strings.Contains(msg, "deadlock"):
		return "deadlock"
	case strings.Contains(msg, "never retired"):
		return "tid-accounting"
	case strings.Contains(msg, "final memory mismatch"):
		return "final-memory"
	case strings.Contains(msg, "invalid case"):
		return "invalid-case"
	}
	return "error"
}
