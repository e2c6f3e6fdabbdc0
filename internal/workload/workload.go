// Package workload is the benchmark substrate: deterministic generators of
// transactional programs whose memory behaviour is calibrated to the
// fingerprints the paper reports in Table 3.
//
// The paper evaluates SPEC CPU2000 (equake, swim, tomcatv), SPLASH-2
// (barnes, radix, volrend, water-nsquared, water-spatial), SPECjbb2000, and
// two CEARCH codes (Cluster GA, SVM Classify). We cannot run those binaries
// inside a protocol simulator written from scratch, and the protocol never
// sees computation anyway — it sees transaction sizes, read/write-set sizes
// and locality, conflict patterns, and barrier structure. Each Profile
// reproduces exactly that fingerprint; DESIGN.md documents the substitution
// and EXPERIMENTS.md records the calibration targets.
//
// Determinism contract: Tx(proc, phase, idx) is a pure function of the
// program seed and its arguments, so a violated transaction re-executes the
// identical operation sequence — the same guarantee a real re-executed code
// region provides.
package workload

import (
	"scalabletcc/internal/mem"
	"scalabletcc/internal/sim"
)

// Kind discriminates operations within a transaction.
type Kind uint8

// Operation kinds.
const (
	Compute Kind = iota // consume Cycles cycles of CPI-1 execution
	Load                // read the word at Addr
	Store               // speculatively write the word at Addr
)

// Op is one step of a transaction. The fields run widest first, so an Op
// packs into 16 bytes.
type Op struct {
	Addr   mem.Addr // Load/Store
	Cycles uint32   // Compute
	Kind   Kind
}

// Tx is a generated transaction: the ops plus its instruction count
// (compute cycles at CPI 1, plus one instruction per memory operation).
type Tx struct {
	Ops []Op
}

// Instructions returns the transaction's instruction count.
func (t *Tx) Instructions() uint64 {
	var n uint64
	for _, op := range t.Ops {
		if op.Kind == Compute {
			n += uint64(op.Cycles)
		} else {
			n++
		}
	}
	return n
}

// Loads returns the transaction's load count: an upper bound on the words
// its read set can hold.
func (t *Tx) Loads() int {
	n := 0
	for i := range t.Ops {
		if t.Ops[i].Kind == Load {
			n++
		}
	}
	return n
}

// Program is a transactional parallel program: per processor, Phases()
// barrier-separated phases each containing TxCount transactions.
type Program interface {
	Name() string
	Procs() int
	Phases() int
	TxCount(proc, phase int) int
	// Tx generates one transaction. The returned Tx.Ops remains valid only
	// until the next Tx call for the same proc — implementations may reuse
	// per-processor scratch buffers. Calls for distinct procs are safe from
	// distinct goroutines.
	Tx(proc, phase, idx int) Tx
	// PreMap establishes the NUMA homing an initialization phase would have
	// produced under first-touch (private data at its owner, shared segments
	// round-robin).
	PreMap(m *mem.Map)
}

// Address-space layout shared by all synthetic programs. Regions are placed
// far apart so they can never alias.
const (
	privateBase mem.Addr = 1 << 32
	privStride  mem.Addr = 1 << 24
	sharedBase  mem.Addr = 1 << 40
	segStride   mem.Addr = 1 << 24
	hotBase     mem.Addr = 1 << 44
)

// Profile parameterizes a synthetic application. All word counts are means;
// per-transaction values are jittered deterministically.
type Profile struct {
	Name string
	// Fingerprint (Table 3).
	TxInstr    int // mean instructions per transaction
	ReadWords  int // mean words read per transaction
	WriteWords int // mean words written per transaction
	DirsSpan   int // home directories the shared write-set spans (0 = all nodes)

	// Sharing / conflict behaviour.
	SharedReadFrac  float64 // fraction of reads targeting shared segments
	SharedWriteFrac float64 // fraction of writes targeting shared segments
	HotReadFrac     float64 // fraction of reads targeting the hot (conflict) region
	HotWriteFrac    float64 // fraction of writes targeting the hot region
	HotWords        int     // size of the hot region in words
	// HotPerProcWord pins each processor's hot accesses to word
	// (proc mod HotWords): processors touch disjoint words of shared lines,
	// the classic false-sharing pattern (no conflicts at word granularity,
	// constant conflicts at line granularity).
	HotPerProcWord bool

	// DisjointShared partitions every shared segment among processors, so
	// shared accesses span many home directories without ever colliding on
	// a word — radix sort's pattern (each processor scatters keys into its
	// own slice of a global array).
	DisjointShared bool

	// Footprints. Both are the *total* dataset size; the build partitions
	// them across processors (strong scaling: each processor's private
	// partition is PrivateWords/procs, each node's shared segment is
	// SharedWords/procs), matching how the paper's applications divide
	// fixed inputs.
	PrivateWords int // total private data across processors, in words
	SharedWords  int // total shared data across segments, in words

	// Structure.
	TotalTx   int     // total transactions across all processors (strong scaling)
	NumPhases int     // barrier-separated phases (0 or 1 = no barriers)
	Imbalance float64 // relative spread of per-processor work within a phase

	// RunLen is the mean spatial-locality run length (consecutive words per
	// access cluster). Zero means 6.
	RunLen int
}

type program struct {
	Profile
	procs int
	seed  uint64
	base  *sim.RNG
	// txs[proc][phase] is the transaction count.
	txs [][]int
	// scratch[proc] holds the reusable Tx-generation buffers; each Tx call
	// for a proc recycles that proc's previous Ops slice (see Program.Tx).
	scratch []txScratch
}

// txAccess is one generated memory access before read/write interleaving.
type txAccess struct {
	addr  mem.Addr
	write bool
}

type txScratch struct {
	acc []txAccess
	ops []Op
}

// Build instantiates the profile for a processor count and seed.
func (p Profile) Build(procs int, seed uint64) Program {
	if procs <= 0 {
		panic("workload: procs must be positive")
	}
	phases := p.NumPhases
	if phases <= 0 {
		phases = 1
	}
	prog := &program{Profile: p, procs: procs, seed: seed, base: sim.NewRNG(seed), scratch: make([]txScratch, procs)}
	prog.NumPhases = phases

	// Distribute TotalTx across phases and processors, applying the
	// imbalance knob within each phase.
	perPhase := p.TotalTx / phases
	if perPhase < procs {
		perPhase = procs // at least one transaction per processor per phase
	}
	prog.txs = make([][]int, procs)
	for pr := range prog.txs {
		prog.txs[pr] = make([]int, phases)
	}
	for ph := 0; ph < phases; ph++ {
		rng := prog.base.Derive(0xBA11A, uint64(ph))
		base := perPhase / procs
		rem := perPhase % procs
		for pr := 0; pr < procs; pr++ {
			n := base
			if pr < rem {
				n++
			}
			if p.Imbalance > 0 && base > 0 {
				jitter := int(float64(base) * p.Imbalance)
				if jitter > 0 {
					n += rng.Intn(2*jitter+1) - jitter
				}
			}
			if n < 1 {
				n = 1
			}
			prog.txs[pr][ph] = n
		}
	}
	return prog
}

func (p *program) Name() string                { return p.Profile.Name }
func (p *program) Procs() int                  { return p.procs }
func (p *program) Phases() int                 { return p.NumPhases }
func (p *program) TxCount(proc, phase int) int { return p.txs[proc][phase] }

func (p *program) runLen() int {
	if p.RunLen > 0 {
		return p.RunLen
	}
	return 6
}

// privWords is one processor's private partition size.
func (p *program) privWords() int {
	n := p.PrivateWords / p.procs
	if n < 512 {
		n = 512
	}
	return n
}

// segWords is one node's shared-segment size.
func (p *program) segWords() int {
	n := p.SharedWords / p.procs
	if n < 256 {
		n = 256
	}
	return n
}

// privateWord returns the address of word w in proc's private region.
func (p *program) privateWord(proc, w int) mem.Addr {
	return privateBase + mem.Addr(proc)*privStride + mem.Addr(w*4)
}

// sharedWord returns the address of word w in segment seg.
func (p *program) sharedWord(seg, w int) mem.Addr {
	return sharedBase + mem.Addr(seg)*segStride + mem.Addr(w*4)
}

func (p *program) hotWord(w int) mem.Addr { return hotBase + mem.Addr(w*4) }

// span returns the number of shared segments a processor's accesses cover.
func (p *program) span() int {
	s := p.DirsSpan
	if s <= 0 || s > p.procs {
		s = p.procs
	}
	return s
}

// pickAddr draws one word address for proc given the region probabilities.
func (p *program) pickAddr(rng *sim.RNG, proc int, write bool) mem.Addr {
	sharedFrac, hotFrac := p.SharedReadFrac, p.HotReadFrac
	if write {
		sharedFrac, hotFrac = p.SharedWriteFrac, p.HotWriteFrac
	}
	r := rng.Float64()
	switch {
	case r < hotFrac && p.HotWords > 0:
		if p.HotPerProcWord {
			return p.hotWord(proc % p.HotWords)
		}
		return p.hotWord(rng.Intn(p.HotWords))
	case r < hotFrac+sharedFrac && p.SharedWords > 0:
		seg := (proc + rng.Intn(p.span())) % p.procs
		n := p.segWords()
		if p.DisjointShared {
			part := n / p.procs
			if part < 32 {
				part = 32
			}
			// Keep a spatial-locality run's tail inside the partition so
			// neighbouring processors' slices never overlap.
			margin := 2 * p.runLen()
			width := part - margin
			if width < 1 {
				width = 1
			}
			off := (proc * part) % n
			return p.sharedWord(seg, (off+rng.Intn(width))%n)
		}
		return p.sharedWord(seg, rng.Intn(n))
	default:
		return p.privateWord(proc, rng.Intn(p.privWords()))
	}
}

// Tx generates the transaction deterministically from (seed, proc, phase, idx).
func (p *program) Tx(proc, phase, idx int) Tx {
	rng := p.base.Derive(1, uint64(proc), uint64(phase), uint64(idx))

	instr := rng.Geometric(p.TxInstr)
	nrd := rng.Geometric(p.ReadWords)
	nwr := rng.Geometric(p.WriteWords)
	if nwr < 1 {
		nwr = 1
	}
	memOps := nrd + nwr
	if memOps > instr {
		instr = memOps // a memory op is at least one instruction
	}
	computeBudget := instr - memOps

	// Build the memory-op address stream with spatial locality: runs of
	// consecutive words starting at a drawn address. Buffers come from the
	// proc's scratch, sized once from the drawn counts: the stream holds
	// exactly memOps accesses, and the op list at most a compute op ahead
	// of each access (or one compute op alone).
	sc := &p.scratch[proc]
	if cap(sc.acc) < memOps {
		sc.acc = make([]txAccess, 0, memOps)
	}
	if cap(sc.ops) < 2*memOps+1 {
		sc.ops = make([]Op, 0, 2*memOps+1)
	}
	accesses := sc.acc[:0]
	run := p.runLen()
	emit := func(n int, write bool) {
		for n > 0 {
			base := p.pickAddr(rng, proc, write)
			l := 1 + rng.Intn(2*run-1) // mean ≈ run
			if l > n {
				l = n
			}
			for i := 0; i < l; i++ {
				accesses = append(accesses, txAccess{base + mem.Addr(4*i), write})
			}
			n -= l
		}
	}
	emit(nrd, false)
	emit(nwr, true)
	// Interleave reads and writes deterministically (Fisher-Yates).
	for i := len(accesses) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		accesses[i], accesses[j] = accesses[j], accesses[i]
	}

	// Spread the compute budget across the memory ops.
	ops := sc.ops[:0]
	per := 0
	if len(accesses) > 0 {
		per = computeBudget / len(accesses)
	}
	spent := 0
	for i, a := range accesses {
		c := per
		if i == len(accesses)-1 {
			c = computeBudget - spent
		}
		if c > 0 {
			ops = append(ops, Op{Kind: Compute, Cycles: uint32(c)})
			spent += c
		}
		k := Load
		if a.write {
			k = Store
		}
		ops = append(ops, Op{Kind: k, Addr: a.addr})
	}
	if len(accesses) == 0 && computeBudget > 0 {
		ops = append(ops, Op{Kind: Compute, Cycles: uint32(computeBudget)})
	}
	return Tx{Ops: ops}
}

// PreMap homes private pages at their owners and shared/hot pages
// round-robin across nodes, as an initialization phase would under
// first-touch.
func (p *program) PreMap(m *mem.Map) {
	g := m.Geometry()
	for proc := 0; proc < p.procs; proc++ {
		lo := p.privateWord(proc, 0)
		hi := p.privateWord(proc, p.privWords()-1)
		for pg := g.Page(lo); pg <= g.Page(hi); pg += mem.Addr(g.PageSize) {
			m.Home(pg, proc)
		}
	}
	for seg := 0; seg < p.procs; seg++ {
		lo := p.sharedWord(seg, 0)
		hi := p.sharedWord(seg, p.segWords()-1)
		for pg := g.Page(lo); pg <= g.Page(hi); pg += mem.Addr(g.PageSize) {
			m.Home(pg, seg%m.Nodes())
		}
	}
	if p.HotWords > 0 {
		lo := p.hotWord(0)
		hi := p.hotWord(p.HotWords - 1)
		n := 0
		for pg := g.Page(lo); pg <= g.Page(hi); pg += mem.Addr(g.PageSize) {
			m.Home(pg, n%m.Nodes())
			n++
		}
	}
}
