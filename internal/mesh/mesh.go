// Package mesh models the interconnection network of the simulated DSM
// machine: a 2-D grid with dimension-ordered (XY) routing, per-link FIFO
// contention, and a configurable per-hop latency — the "ICN" row of the
// paper's Table 2. Figure 8 is produced by sweeping HopLatency.
//
// The model is a pipelined store-and-forward approximation: a message waits
// for each directed link on its path to become free, occupies it for its
// serialization time (bytes / link bandwidth), and advances one hop per
// HopLatency cycles. This captures the two effects the evaluation cares
// about — latency growing with distance and congestion under bursty commit
// traffic — without flit-level detail.
package mesh

import (
	"fmt"

	"scalabletcc/internal/sim"
)

// Class labels traffic for the Figure 9 breakdown.
type Class int

// Traffic classes, matching the legend of Figure 9.
const (
	ClassCommit    Class = iota // TID requests, skips, probes, marks, commits, aborts, invalidations
	ClassMiss                   // load requests and data replies
	ClassWriteBack              // evicted committed-dirty lines returning to memory
	ClassShared                 // owner flush forwards on true sharing
	numClasses
)

// String returns the Figure 9 legend name for the class.
func (c Class) String() string {
	switch c {
	case ClassCommit:
		return "CommitOverhead"
	case ClassMiss:
		return "Miss"
	case ClassWriteBack:
		return "WriteBack"
	case ClassShared:
		return "Shared"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// NumClasses is the number of traffic classes.
const NumClasses = int(numClasses)

// Config parameterizes the network.
type Config struct {
	Width, Height int      // grid dimensions; Width*Height >= node count
	HopLatency    sim.Time // cycles for a message head to traverse one link
	LinkBytes     int      // bytes a link moves per cycle (bandwidth)
	LocalLatency  sim.Time // latency for src == dst delivery
	// Torus adds wraparound links in both dimensions, halving worst-case
	// hop counts (an alternative the paper's "2-D grid" row invites
	// exploring).
	Torus bool
	// Jitter, if non-nil, returns extra delivery delay for a message. It
	// exists for fault-injection tests that break the per-pair ordering a
	// FIFO mesh otherwise provides (the paper's "unordered interconnect"
	// races).
	Jitter func(src, dst, bytes int) sim.Time
}

// DefaultConfig returns the Table 2 network: 2-D grid, 3-cycle links,
// 8 bytes/cycle per link.
func DefaultConfig(nodes int) Config {
	w, h := Dimensions(nodes)
	return Config{Width: w, Height: h, HopLatency: 3, LinkBytes: 8, LocalLatency: 1}
}

// Dimensions returns near-square grid dimensions for the node count.
func Dimensions(nodes int) (w, h int) {
	if nodes <= 0 {
		return 1, 1
	}
	w = 1
	for w*w < nodes {
		w++
	}
	h = (nodes + w - 1) / w
	return w, h
}

type link struct {
	nextFree sim.Time
	busy     sim.Time // total cycles occupied, for utilization reporting
}

// Network is a 2-D mesh. All methods must be called from kernel context
// (single-threaded simulation).
type Network struct {
	k   *sim.Kernel
	cfg Config
	// links[dir][node] is the directed link leaving node in direction dir.
	// Node ids are row-major grid positions, but intermediate hops can pass
	// through grid positions beyond the node count (a non-square machine on
	// a near-square grid), so links are indexed by grid position.
	links [4][]link

	nodes int

	bytesByClass [NumClasses]uint64
	msgsByClass  [NumClasses]uint64
	// perNode[i] counts bytes produced by node i (Figure 9 is per-directory
	// average).
	perNodeBytes []uint64
	hopsTotal    uint64
}

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// New creates a network for nodes nodes.
func New(k *sim.Kernel, nodes int, cfg Config) *Network {
	if cfg.Width*cfg.Height < nodes {
		panic(fmt.Sprintf("mesh: grid %dx%d too small for %d nodes", cfg.Width, cfg.Height, nodes))
	}
	if cfg.LinkBytes <= 0 {
		panic("mesh: LinkBytes must be positive")
	}
	n := &Network{k: k, cfg: cfg, nodes: nodes, perNodeBytes: make([]uint64, nodes)}
	gridN := cfg.Width * cfg.Height
	for d := range n.links {
		n.links[d] = make([]link, gridN)
	}
	return n
}

// Coord returns the grid coordinates of a node.
func (n *Network) Coord(node int) (x, y int) {
	return node % n.cfg.Width, node / n.cfg.Width
}

// Hops returns the XY-routing hop count between two nodes.
func (n *Network) Hops(src, dst int) int {
	sx, sy := n.Coord(src)
	dx, dy := n.Coord(dst)
	return n.dimHops(sx, dx, n.cfg.Width) + n.dimHops(sy, dy, n.cfg.Height)
}

// dimHops returns the hop count along one dimension, honoring wraparound.
func (n *Network) dimHops(from, to, size int) int {
	d := abs(from - to)
	if n.cfg.Torus && size-d < d {
		d = size - d
	}
	return d
}

// dimStep returns the next coordinate moving from cur toward dst along a
// dimension of the given size, using the wraparound link when it is shorter.
func (n *Network) dimStep(cur, dst, size int) int {
	if cur == dst {
		return cur
	}
	forward := dst - cur
	if forward < 0 {
		forward += size
	}
	stepUp := forward <= size-forward
	if !n.cfg.Torus {
		stepUp = dst > cur
	}
	if stepUp {
		return (cur + 1) % size
	}
	return (cur - 1 + size) % size
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// RouteAt performs the traffic accounting and the hop-by-hop link walk for
// one message injected at time now and returns its arrival time at dst. It
// allocates nothing. The explicit injection time exists for the epoch
// engine, whose merge phase replays a window's cross-node sends in
// canonical order after the kernel has already advanced past their send
// times; with messages replayed in nondecreasing time order the link
// reservations are identical to an inline walk. A node-local message
// (src == dst) only counts traffic and arrives LocalLatency later.
//
// The per-hop direction is computed arithmetically (XY order, shortest way
// around on a torus) rather than from a precomputed (position, destination)
// table: the table was O(grid * nodes) space — 1 MB for a 32x32 mesh and
// growing quadratically — for a lookup that is two compares and a modular
// increment.
func (n *Network) RouteAt(now sim.Time, src, dst, bytes int, class Class) sim.Time {
	n.bytesByClass[class] += uint64(bytes)
	n.msgsByClass[class]++
	n.perNodeBytes[src] += uint64(bytes)

	if src == dst {
		return now + n.cfg.LocalLatency
	}

	occupancy := sim.Time((bytes + n.cfg.LinkBytes - 1) / n.cfg.LinkBytes)
	if occupancy < 1 {
		occupancy = 1
	}
	w, h := n.cfg.Width, n.cfg.Height
	x, y := src%w, src/w
	dx, dy := n.Coord(dst)
	t := now
	for x != dx || y != dy {
		var d int
		nx, ny := x, y
		if x != dx {
			if n.dimStep(x, dx, w) == (x+1)%w {
				d, nx = dirEast, (x+1)%w
			} else {
				d, nx = dirWest, (x-1+w)%w
			}
		} else {
			if n.dimStep(y, dy, h) == (y+1)%h {
				d, ny = dirNorth, (y+1)%h
			} else {
				d, ny = dirSouth, (y-1+h)%h
			}
		}
		l := &n.links[d][y*w+x]
		start := t
		if l.nextFree > start {
			start = l.nextFree
		}
		l.nextFree = start + occupancy
		l.busy += occupancy
		t = start + n.cfg.HopLatency
		x, y = nx, ny
		n.hopsTotal++
	}
	arrival := t + occupancy // tail of the message drains at the destination
	if n.cfg.Jitter != nil {
		arrival += n.cfg.Jitter(src, dst, bytes)
	}
	return arrival
}

// SendEvent schedules delivery of a message of the given size and class from
// src to dst: at arrival time the kernel runs h.HandleEvent(code, a1, a2).
// Messages between the same pair sent in time order arrive in order (FIFO
// links, deterministic routing) unless Jitter is configured. Payloads larger
// than the two argument words live in sender-owned pooled records referenced
// by index. Allocation-free.
func (n *Network) SendEvent(src, dst, bytes int, class Class, h sim.Handler, code uint32, a1, a2 uint64) {
	n.k.Post(n.RouteAt(n.k.Now(), src, dst, bytes, class), h, code, a1, a2)
}

// LinkBusy returns each directed link's cumulative busy cycles, flattened as
// [direction][node] (east, west, north, south) — the raw series behind a
// per-link utilization time-series (successive snapshots differenced over
// the sampling interval).
func (n *Network) LinkBusy() []sim.Time {
	out := make([]sim.Time, 0, 4*len(n.links[0]))
	for d := range n.links {
		for i := range n.links[d] {
			out = append(out, n.links[d][i].busy)
		}
	}
	return out
}

// Stats is a snapshot of traffic accounting.
type Stats struct {
	BytesByClass [NumClasses]uint64
	MsgsByClass  [NumClasses]uint64
	PerNodeBytes []uint64
	TotalHops    uint64
}

// Stats returns a copy of the accumulated traffic counters.
func (n *Network) Stats() Stats {
	s := Stats{
		BytesByClass: n.bytesByClass,
		MsgsByClass:  n.msgsByClass,
		TotalHops:    n.hopsTotal,
	}
	s.PerNodeBytes = append([]uint64(nil), n.perNodeBytes...)
	return s
}

// TotalBytes returns the total bytes injected across all classes.
func (s Stats) TotalBytes() uint64 {
	var t uint64
	for _, b := range s.BytesByClass {
		t += b
	}
	return t
}
