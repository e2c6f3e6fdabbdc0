package scalabletcc

import (
	"fmt"
	"hash/fnv"
	"testing"

	"scalabletcc/internal/mem"
	"scalabletcc/internal/verify"
	"scalabletcc/tcc"
)

// The sharded-kernel golden fixture pins the epoch engine's observable
// behaviour the same way testdata/golden.json pins the sequential kernel's.
// The defining property of the sharded engine is shard-count independence: the simulated outcome is a function of the epoch structure
// (window = HopLatency) only, so every Shards >= 1 value must produce a
// byte-identical run — same cycles, same statistics, same typed event stream
// in the same order. The test replays each fixture cell at shard counts
// 1/2/4/8 and requires all of them to match the recorded fingerprint
// exactly. The 64-processor rows (the benchmark's sharded-64p shape) skip
// under -short.
//
// Regenerate with:
//
//	go test -run TestGoldenShardFixture -update .
const goldenShardPath = "testdata/golden_shard.json"

// goldenShardCell is the recorded fingerprint of one sharded canonical run.
// The shard counts replayed against it live in the test, not the fixture —
// the whole point is that they all land on the same fingerprint.
type goldenShardCell struct {
	Name       string  `json:"name"`
	App        string  `json:"app"`
	Procs      int     `json:"procs"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Cycles     uint64  `json:"cycles"`
	Commits    uint64  `json:"commits"`
	Violations uint64  `json:"violations"`
	Instr      uint64  `json:"instr"`
	Bytes      uint64  `json:"bytes"`
	Events     uint64  `json:"events"`
	EventHash  string  `json:"event_hash"`
	// CommitLogHash is an FNV-1a 64 digest over the commit log, one line per
	// record in log order: TID, processor, read and write footprints.
	CommitLogHash string `json:"commit_log_hash"`
}

// long reports whether the cell is too slow for the -short tier.
func (c goldenShardCell) long() bool { return c.Procs >= 64 }

// runGoldenShardCell executes one canonical configuration on the sharded
// engine with the given shard count and fills in the measured half.
func runGoldenShardCell(t *testing.T, c goldenShardCell, shards int) goldenShardCell {
	t.Helper()
	prog := tcc.MustProfile(c.App).Scale(c.Scale).Build(c.Procs, c.Seed)
	cfg := tcc.DefaultConfig(c.Procs)
	cfg.Shards = shards
	cfg.CollectCommitLog = true
	sys, err := tcc.NewSystem(cfg, prog)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", c.Name, shards, err)
	}
	eh := newEventHasher()
	sys.Observe(eh.observer())
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s shards=%d: %v", c.Name, shards, err)
	}
	c.Cycles = uint64(res.Cycles)
	c.Commits = res.Commits
	c.Violations = res.Violations
	c.Instr = res.Instr
	c.Bytes = res.Traffic.TotalBytes()
	c.Events = eh.n
	c.EventHash = eh.sum()
	h := fnv.New64a()
	for _, r := range res.CommitLog {
		fmt.Fprintf(h, "%d|%d|%v|%v\n", r.TID, r.Proc, wordMap(r.Reads), wordMap(r.Writes))
	}
	c.CommitLogHash = fmt.Sprintf("%016x", h.Sum64())
	return c
}

// wordMap turns a record side into the address→version map the commit log
// held when the hashes were recorded: fmt prints a map's keys sorted, so the
// hash does not depend on the order a side lists its words in.
func wordMap(w verify.Words) map[mem.Addr]mem.Version {
	m := make(map[mem.Addr]mem.Version, len(w))
	for _, s := range w {
		m[s.Addr] = s.Version
	}
	return m
}

// goldenShardConfigs are the canonical sharded runs: a contended hotspot run
// (heavy cross-node commit traffic through one home directory — the worst
// case for merge ordering) and a locality-friendly barnes run (mostly
// node-local work — the worst case for idle-shard handling), each also at
// 64 processors and scale 0.1.
func goldenShardConfigs() []goldenShardCell {
	return []goldenShardCell{
		{Name: "shard-hotspot-16p", App: "hotspot", Procs: 16, Scale: 0.25, Seed: 3},
		{Name: "shard-barnes-8p", App: "barnes", Procs: 8, Scale: 0.05, Seed: 1},
		{Name: "shard-hotspot-64p", App: "hotspot", Procs: 64, Scale: 0.1, Seed: 5},
		{Name: "shard-barnes-64p", App: "barnes", Procs: 64, Scale: 0.1, Seed: 6},
	}
}

// goldenShardCounts are the shard counts every cell is replayed at. 1 is the
// smallest run of the epoch engine (not the sequential kernel); 8 equals the
// smaller cell's processor count.
func goldenShardCounts() []int { return []int{1, 2, 4, 8} }

func TestGoldenShardFixture(t *testing.T) {
	cfgs := goldenShardConfigs()
	got := make([]goldenShardCell, len(cfgs))
	for i, c := range cfgs {
		if c.long() && testing.Short() {
			continue
		}
		got[i] = runGoldenShardCell(t, c, 1)
	}

	checkFixture(t, goldenShardPath, got, func(i int) bool { return !(cfgs[i].long() && testing.Short()) })

	// Shard-count independence: every shard count reproduces the shards=1
	// fingerprint byte for byte. Procs must stay divisible by the count.
	for i, c := range cfgs {
		if c.long() && testing.Short() {
			continue
		}
		for _, n := range goldenShardCounts()[1:] {
			if c.Procs%n != 0 {
				continue
			}
			if r := runGoldenShardCell(t, c, n); r != got[i] {
				t.Errorf("%s: shards=%d diverged from shards=1:\n  want %+v\n  got  %+v",
					c.Name, n, got[i], r)
			}
		}
	}
}

// TestGoldenShardReplayStable runs the contended cell twice at shards=4 and
// requires identical fingerprints: the epoch engine must carry no state
// from one run into the next.
func TestGoldenShardReplayStable(t *testing.T) {
	c := goldenShardConfigs()[0]
	a := runGoldenShardCell(t, c, 4)
	b := runGoldenShardCell(t, c, 4)
	if a != b {
		t.Fatalf("same-seed sharded replay diverged:\n  %+v\n  %+v", a, b)
	}
}
