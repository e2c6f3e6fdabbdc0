package rival_test

import (
	"fmt"
	"testing"

	"scalabletcc/internal/baseline"
	"scalabletcc/internal/cache"
	"scalabletcc/internal/core"
	"scalabletcc/internal/eager"
	"scalabletcc/internal/mem"
	"scalabletcc/internal/obs"
	"scalabletcc/internal/rival"
	"scalabletcc/internal/tl2"
	"scalabletcc/internal/verify"
	"scalabletcc/internal/workload"
)

// maskWords returns the words the attempt's TxLine read masks mark read
// (tl2, eager).
func maskWords(th *rival.Thread) []mem.Addr {
	g := th.M.Cfg.Geometry
	var out []mem.Addr
	for _, tl := range th.Lines.L {
		for w := 0; w < g.WordsPerLine(); w++ {
			if tl.ReadWords.Has(w) {
				out = append(out, g.WordAddr(tl.Base, w))
			}
		}
	}
	return out
}

// srWords returns the words carrying SR bits across the cache's main array
// and overflow area (baseline).
func srWords(th *rival.Thread) []mem.Addr {
	g := th.M.Cfg.Geometry
	var out []mem.Addr
	th.Cache.ForEachSpeculative(func(l *cache.Line) {
		for w := 0; w < g.WordsPerLine(); w++ {
			if l.SR.Has(w) {
				out = append(out, g.WordAddr(l.Base, w))
			}
		}
	})
	return out
}

// readLogChecker checks, at every commit, that the committing processor's
// read set samples exactly the words its machine marked read, each once.
type readLogChecker struct {
	m       *rival.Machine
	marked  func(*rival.Thread) []mem.Addr
	commits int
	err     error
}

func (c *readLogChecker) Event(e obs.Event) {
	if e.Kind != obs.KCommit || c.err != nil {
		return
	}
	c.commits++
	th := c.m.Threads()[e.Node]
	marked := c.marked(th)
	samples := th.ReadSet.Samples()
	if len(marked) != len(samples) {
		c.err = fmt.Errorf("commit %d (proc %d): %d words marked read, %d samples", c.commits, e.Node, len(marked), len(samples))
		return
	}
	left := make(map[mem.Addr]bool, len(marked))
	for _, a := range marked {
		left[a] = true
	}
	for _, s := range samples {
		if !left[s.Addr] {
			c.err = fmt.Errorf("commit %d (proc %d): sample %#x is not marked read, or is sampled twice", c.commits, e.Node, s.Addr)
			return
		}
		delete(left, s.Addr)
	}
}

// The rivals' read log against their read bits: at every commit of tl2,
// eager and baseline on hotspot 8p and equake 16p, the read set's addresses
// are exactly the words the machine marked read (the TxLine read masks, or
// the SR words across the main array and the overflow area), each once.
// Equake also runs with a 4 KB L2, whose evictions make the mesh rivals
// refetch read lines and the bus machine spill to its overflow area. The
// runs stay serializable and their memory matches the replay.
func TestReadLogMatchesReadBits(t *testing.T) {
	machines := []struct {
		name   string
		build  func(core.Config, workload.Program) (*rival.Machine, error)
		marked func(*rival.Thread) []mem.Addr
	}{
		{"tl2", func(c core.Config, p workload.Program) (*rival.Machine, error) {
			s, err := tl2.NewSystem(c, p)
			if err != nil {
				return nil, err
			}
			return &s.Machine, nil
		}, maskWords},
		{"eager", func(c core.Config, p workload.Program) (*rival.Machine, error) {
			s, err := eager.NewSystem(c, p)
			if err != nil {
				return nil, err
			}
			return &s.Machine, nil
		}, maskWords},
		{"baseline", func(c core.Config, p workload.Program) (*rival.Machine, error) {
			s, err := baseline.NewSystem(c, p)
			if err != nil {
				return nil, err
			}
			return &s.Machine, nil
		}, srWords},
	}
	cells := []struct {
		prof    workload.Profile
		procs   int
		smallL2 bool
	}{{workload.Hotspot(), 8, false}, {workload.Equake(), 16, false}, {workload.Equake(), 16, true}}
	for _, mc := range machines {
		for _, cell := range cells {
			prof := cell.prof
			if testing.Short() {
				prof = prof.Scale(0.25)
			}
			name := fmt.Sprintf("%s/%s-%dp", mc.name, prof.Name, cell.procs)
			if cell.smallL2 {
				name += "-small-l2"
			}
			t.Run(name, func(t *testing.T) {
				cfg := core.DefaultConfig(cell.procs)
				if cell.smallL2 {
					cfg.L2Size, cfg.L1Size = 4<<10, 1<<10
				}
				m, err := mc.build(cfg, prof.Build(cell.procs, cfg.Seed))
				if err != nil {
					t.Fatal(err)
				}
				c := &readLogChecker{m: m, marked: mc.marked}
				m.Observe(c)
				m.CollectCommitLog(true)
				if err := m.Simulate(); err != nil {
					t.Fatal(err)
				}
				if c.err != nil {
					t.Fatal(c.err)
				}
				if c.commits == 0 || uint64(c.commits) != m.Commits {
					t.Fatalf("checked %d commits of %d", c.commits, m.Commits)
				}
				if v := verify.Check(m.CommitLog); len(v) != 0 {
					t.Fatalf("%d serializability violations (first %v)", len(v), v[0])
				}
				if err := m.AuditFinalMemory(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
