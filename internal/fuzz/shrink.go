package fuzz

import (
	"context"
	"fmt"
)

// Shrinking. A failing fuzz case is usually huge — tens of processors,
// thousands of operations. The shrinker greedily applies reductions (halve
// the processor count, the transaction count, the op count, the address
// range; drop config toggles back to defaults) and accepts a candidate only
// if it still fails with the *same class*, re-seeding each candidate a few
// times so a reduction isn't rejected just because the original seed's
// schedule no longer lines up. The result is the fixed point: no single
// reduction preserves the failure.

// ShrinkResult is the outcome of a shrink session.
type ShrinkResult struct {
	Case  Case   // the minimal reproducer
	Class string // the failure class it reproduces
	Runs  int    // simulations spent
	Steps int    // accepted reductions
}

// reseedTries are the seeds attempted per candidate, starting with the
// candidate's own.
var reseedTries = []uint64{0 /* own */, 1, 2, 3}

// Shrink reduces c to a minimal case that still fails with class. budget
// bounds the number of simulations. classify maps a case to its failure
// class; nil means Class(Run(c)) with no deadline — campaigns pass one
// that runs each case under the case deadline, so a hang-class case can
// still shrink.
func Shrink(c Case, class string, budget int, classify func(*Case) string) ShrinkResult {
	if classify == nil {
		classify = func(c *Case) string { return Class(Run(context.Background(), c)) }
	}
	runs, steps := 0, 0
	try := func(cand Case) (Case, bool) {
		for _, s := range reseedTries {
			if runs >= budget {
				return Case{}, false
			}
			if s != 0 {
				cand.Seed = s
			}
			if cand.Validate() != nil {
				return Case{}, false
			}
			runs++
			if classify(&cand) == class {
				return cand, true
			}
		}
		return Case{}, false
	}

	cur := c
	for runs < budget {
		accepted := false
		for _, cand := range reductions(cur) {
			if got, ok := try(cand); ok {
				cur, accepted = got, true
				steps++
				break // restart from the most aggressive reduction
			}
		}
		if !accepted {
			break
		}
	}
	cur.Name = fmt.Sprintf("shrunk-%s-%x", sanitizeClass(class), cur.Seed)
	return ShrinkResult{Case: cur, Class: class, Runs: runs, Steps: steps}
}

// reductions returns candidate reductions of c, most aggressive first. Every
// candidate is structurally valid (meshes recomputed, fault targets
// clamped); Validate re-checks before running.
func reductions(c Case) []Case {
	var out []Case
	add := func(f func(*Case)) {
		cand := c
		f(&cand)
		if cand != c {
			out = append(out, cand)
		}
	}

	if c.Procs > 1 {
		add(func(n *Case) { n.setProcs(c.Procs / 2) })
		add(func(n *Case) { n.setProcs(c.Procs - 1) })
	}
	if c.TxPerProc > 1 {
		add(func(n *Case) { n.TxPerProc = max(1, c.TxPerProc/2) })
		add(func(n *Case) { n.TxPerProc = c.TxPerProc - 1 })
	}
	if c.OpsPerTx > 1 {
		add(func(n *Case) { n.OpsPerTx = max(1, c.OpsPerTx/2) })
		add(func(n *Case) { n.OpsPerTx = c.OpsPerTx - 1 })
	}
	if c.Lines > 1 {
		add(func(n *Case) { n.Lines = max(1, c.Lines/2) })
	}
	if c.HotWords > 1 {
		add(func(n *Case) { n.HotWords = max(1, c.HotWords/2) })
	}
	if c.MaxCompute > 1 {
		add(func(n *Case) { n.MaxCompute = 1 })
	}
	// Config simplifications: back toward the default machine.
	if c.Torus {
		add(func(n *Case) { n.Torus = false })
	}
	if c.SingleHome {
		add(func(n *Case) { n.SingleHome = false })
	}
	if c.LineGranularity {
		add(func(n *Case) { n.LineGranularity = false })
	}
	if c.WriteThrough {
		add(func(n *Case) { n.WriteThrough = false })
	}
	if c.RepeatedProbes {
		add(func(n *Case) { n.RepeatedProbes = false })
	}
	if c.StarveRetainAfter != 0 {
		add(func(n *Case) { n.StarveRetainAfter = 0 })
	}
	if c.DirCacheEntries != 0 {
		add(func(n *Case) { n.DirCacheEntries = 0 })
	}
	if c.L2Bytes < 512<<10 {
		add(func(n *Case) { n.L2Bytes = 512 << 10 })
	}
	if c.L1Bytes < 32<<10 {
		add(func(n *Case) { n.L1Bytes = min(32<<10, c.L2Bytes) })
	}
	if c.HopLatency != 3 {
		add(func(n *Case) { n.HopLatency = 3 })
	}
	return out
}

// setProcs reduces the processor count, keeping the mesh's shape family
// (degenerate chains stay chains) and the fault target in range.
func (c *Case) setProcs(n int) {
	if n < 1 {
		n = 1
	}
	c.Procs = n
	switch {
	case c.MeshH == 1:
		c.MeshW, c.MeshH = n, 1
	case c.MeshW == 1:
		c.MeshW, c.MeshH = 1, n
	default:
		w := 1
		for w*w < n {
			w++
		}
		c.MeshW, c.MeshH = w, (n+w-1)/w
	}
	if c.FaultDir >= n {
		c.FaultDir = n - 1
	}
}

func sanitizeClass(class string) string {
	out := []byte(class)
	for i, b := range out {
		switch b {
		case ':', '/', ' ':
			out[i] = '-'
		}
	}
	return string(out)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
