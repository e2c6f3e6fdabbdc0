// Package baseline implements the original small-scale TCC design the paper
// scales past: OCC "condition 2" with a single global commit token and an
// ordered broadcast bus (Hammond et al.'s TCC). Execution overlaps, but only
// one transaction commits at a time, and every commit broadcasts its
// write-set (addresses and data, write-through) to all processors, which
// snoop it against their speculatively-read state.
//
// The paper's motivation — "the sum of all commit times places a lower
// bound on execution time" and "write-through commits with broadcast
// messages will cause excessive traffic" — is exactly what this model
// exposes; the A1 ablation compares it with the scalable design on the same
// workloads.
package baseline

import (
	"scalabletcc/internal/core"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/rival"
	"scalabletcc/internal/sim"
	"scalabletcc/internal/stats"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// busArbitration is the cycles a message waits to win the bus, and the
// cycles the commit token takes to reach its next holder.
const busArbitration sim.Time = 3

// Results mirrors the scalable system's result shape where meaningful.
type Results struct {
	Cycles     sim.Time
	Breakdown  stats.Breakdown
	Commits    uint64
	Violations uint64
	Instr      uint64
	BusBytes   uint64
	BusBusy    sim.Time // cycles the bus was occupied
	CommitLog  []verify.Record
}

// Speedup returns base's cycle count divided by r's.
func (r *Results) Speedup(base *Results) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Summary returns the machine-independent digest every protocol reports
// (ProtocolResults.Summary).
func (r *Results) Summary() stats.Summary {
	return stats.Summary{
		Protocol:     "baseline",
		Cycles:       uint64(r.Cycles),
		Instructions: r.Instr,
		Commits:      r.Commits,
		Violations:   r.Violations,
		Breakdown:    r.Breakdown,
	}
}

// System is the assembled bus-based TCC machine.
type System struct {
	rival.Machine
	procs []*proc

	// Ordered bus: one shared medium with FIFO occupancy.
	busFree  sim.Time
	busBusy  sim.Time
	busBytes uint64

	// Commit token: FIFO arbiter.
	tokenHeld  bool
	tokenQueue []*proc

	commitSeq mem.Version // commit order stands in for TIDs
}

// NewSystem builds a baseline machine for prog on the shared machine cfg,
// with an ordered bus of twice the mesh link width in place of the mesh.
// Its observer sees the lifecycle subset that exists on a bus machine:
// fills, commits, snoop invalidations, violations, overflows, barriers.
func NewSystem(cfg core.Config, prog workload.Program) (*System, error) {
	s := &System{}
	var err error
	if s.Machine, err = rival.NewMachine("baseline", cfg, prog, nil); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Procs; i++ {
		s.procs = append(s.procs, newProc(s, i))
	}
	return s, nil
}

// busSend delivers event code to p after the ordered bus carries a message
// of the given size, modeling arbitration plus serialization.
func (s *System) busSend(bytes int, p *proc, code uint32, a1 uint64) {
	width := 2 * s.Cfg.Mesh.LinkBytes
	occupancy := sim.Time((bytes+width-1)/width) + busArbitration
	start := s.Kernel.Now()
	if s.busFree > start {
		start = s.busFree
	}
	s.busFree = start + occupancy
	s.busBusy += occupancy
	s.busBytes += uint64(bytes)
	s.Kernel.Post(start+occupancy, p, code, a1, 0)
}

// acquireToken queues p for the global commit token.
func (s *System) acquireToken(p *proc) {
	if !s.tokenHeld {
		s.tokenHeld = true
		s.Kernel.PostAfter(busArbitration, p, prToken, 0, 0)
		return
	}
	s.tokenQueue = append(s.tokenQueue, p)
}

// releaseToken passes the token to the next waiter.
func (s *System) releaseToken() {
	if len(s.tokenQueue) == 0 {
		s.tokenHeld = false
		return
	}
	next := s.tokenQueue[0]
	s.tokenQueue = s.tokenQueue[1:]
	s.Kernel.PostAfter(busArbitration, next, prToken, 0, 0)
}

// Run executes the program to completion.
func (s *System) Run() (*Results, error) {
	if err := s.Simulate(); err != nil {
		return nil, err
	}
	return &Results{
		Cycles:     s.Kernel.Now(),
		Breakdown:  s.Breakdown(),
		Commits:    s.Commits,
		Violations: s.Violations,
		Instr:      s.Instr,
		BusBytes:   s.busBytes,
		BusBusy:    s.busBusy,
		CommitLog:  s.CommitLog,
	}, nil
}
