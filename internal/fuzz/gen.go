package fuzz

import (
	"fmt"

	"scalabletcc/internal/sim"
)

// The generator's job is to leave the paper's comfortable operating points:
// the calibrated profiles never put 64 processors on a 1×N mesh, never run a
// 256-byte L2, and never aim every store at one word. Each draw combines
// several of those extremes.

// procMenu is weighted toward small counts (shrunken reproducers live
// there), with the full 1–64 range reachable.
var procMenu = []int{1, 2, 2, 3, 4, 4, 5, 6, 8, 8, 12, 16, 24, 32, 48, 64}

// l2Menu: power-of-two L2 sizes (8-way, 32 B lines → any power of two
// ≥ 256 B yields power-of-two sets), weighted toward eviction-storm
// territory where speculative lines overflow constantly.
var l2Menu = []int{256, 512, 1024, 2048, 2048, 4096, 8192, 32768, 512 << 10}

// l1Menu: power-of-two L1 sizes (4-way).
var l1Menu = []int{512, 512, 1024, 2048, 8192, 32 << 10}

// protocolMix is the default machine-model rotation: half the cases exercise
// the paper's scalable design (the only model with the continuous auditor
// and fault injection), the rest spread over the rival protocols so their
// oracles see adversarial traffic too. Rival cases run on the registry's
// near-square mesh: the chain meshes Gen draws reach tcc cases only.
var protocolMix = []string{
	"tcc", "tcc", "tcc", "tcc", "tcc",
	"tl2", "tl2",
	"eager", "eager",
	"baseline",
}

// Gen draws one adversarial case. Cases are always valid (Validate passes);
// the drawn seed also seeds the case's config and workload. protocols, when
// non-empty, restricts the machine-model rotation (default: protocolMix).
func Gen(rng *sim.RNG, protocols ...string) Case {
	menu := protocols
	if len(menu) == 0 {
		menu = protocolMix
	}
	c := Case{
		Seed:     rng.Uint64() | 1,
		Protocol: menu[rng.Intn(len(menu))],
		Procs:    procMenu[rng.Intn(len(procMenu))],
	}
	c.Name = fmt.Sprintf("gen-%x", c.Seed)

	// Mesh: near-square, or a degenerate 1×N / N×1 chain that maximizes hop
	// counts and link contention. The draw is made and recorded for every
	// protocol, but only a tcc case runs on it (ProtoConfig, DESIGN §19).
	switch rng.Intn(4) {
	case 0:
		c.MeshW, c.MeshH = 1, c.Procs
	case 1:
		c.MeshW, c.MeshH = c.Procs, 1
	default:
		w := 1
		for w*w < c.Procs {
			w++
		}
		c.MeshW, c.MeshH = w, (c.Procs+w-1)/w
	}
	c.Torus = rng.Bool(0.25)
	c.HopLatency = 1 + rng.Intn(6)

	c.L2Bytes = l2Menu[rng.Intn(len(l2Menu))]
	c.L1Bytes = l1Menu[rng.Intn(len(l1Menu))]
	if c.L1Bytes > c.L2Bytes {
		c.L1Bytes = c.L2Bytes
	}
	if rng.Bool(0.3) {
		c.DirCacheEntries = 1 << (2 + rng.Intn(6)) // 4..128 entries: thrash the dir cache
	}
	c.LineGranularity = rng.Bool(0.25)
	c.WriteThrough = rng.Bool(0.2)
	c.RepeatedProbes = rng.Bool(0.2)
	c.StarveRetainAfter = []int{0, 1, 2, 4, 8}[rng.Intn(5)]

	// Workload: small footprints with heavy contention. A skip-heavy mix
	// (many transactions that never touch a given directory) falls out of
	// SingleHome plus multi-node meshes.
	c.TxPerProc = 2 + rng.Intn(24)
	if c.Procs*c.TxPerProc > 512 {
		// Bound total transactions: contention makes retries scale with the
		// processor count, and a case must finish well inside the watchdog.
		c.TxPerProc = max(1, 512/c.Procs)
	}
	c.OpsPerTx = 1 + rng.Intn(24)
	c.Lines = []int{1, 1, 2, 4, 8, 16, 64}[rng.Intn(7)]
	switch rng.Intn(3) {
	case 0:
		c.HotWords = 1 // hot-single-word: every access races on one word
	case 1:
		c.HotWords = 1 + rng.Intn(8)
	}
	c.LoadPct = 10 + rng.Intn(60)
	c.StorePct = rng.Intn(101 - c.LoadPct - 10)
	if c.StorePct < 5 {
		c.StorePct = 5
	}
	c.MaxCompute = 1 + rng.Intn(40)
	c.SingleHome = rng.Bool(0.3)
	return c
}
