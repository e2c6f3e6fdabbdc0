// Package obs is the typed protocol-event observability layer of the
// simulator. The protocol components (internal/core, internal/baseline) emit
// one Event per protocol action — the Table 1 message vocabulary plus the
// lifecycle actions around it (fills, violations, overflow evictions,
// barriers) — to a pluggable Observer. Sinks shipped with the package:
//
//   - JSONLStream: a machine-parseable JSON-lines stream (schema
//     "scalabletcc/events", versioned), one Write per line; JSONLWriter is
//     the same stream behind a bufio.Writer;
//   - RingBuffer: a bounded in-memory tail for debugging;
//   - Counter: a per-kind counting aggregator whose totals reconcile with a
//     run's Results counters;
//   - Tee: fan-out to several sinks;
//   - FuncObserver: a plain function as an Observer; with Line it renders
//     events as human-readable trace text.
//
// A SampleObserver additionally receives periodic Samples — time-series of
// directory NSTID lag, outstanding marks, directory-cache occupancy, and
// per-link mesh utilization (the instrumentation behind the paper's
// Figures 6-9 methodology).
//
// Observation is strictly passive: emitting components gate every emission
// on a nil-check, so a machine with no observer attached pays nothing, and
// an attached observer must never change simulated behaviour.
package obs

import (
	"encoding/json"
	"fmt"
)

// Kind enumerates the protocol-event taxonomy: the Table 1 vocabulary as
// observed actions, plus the lifecycle events an executable machine has that
// the paper's table does not spell out.
type Kind uint8

// The event taxonomy.
const (
	KLoad       Kind = iota // directory served a load from its memory bank
	KForward                // directory forwarded a load to the owning node (true sharing)
	KFill                   // processor accepted arriving line data
	KSkip                   // directory processed a Skip for a TID
	KProbe                  // directory received an NSTID probe
	KProbeResp              // directory answered a probe with its NSTID
	KMark                   // directory marked a line for the now-serving TID
	KCommit                 // processor passed its commit point
	KCommitLine             // directory gang-upgraded one marked line at commit
	KCommitDone             // directory finished servicing a commit (all acks/flushes in)
	KInv                    // processor received an invalidation
	KInvAck                 // directory received an invalidation acknowledgement
	KAbort                  // directory processed an Abort for a TID
	KViolation              // processor rolled back after a conflict
	KWriteBack              // directory received committed data returning to memory
	KFlush                  // processor flushed an owned line on a directory's request
	KFlushResp              // directory merged flushed owner data into memory
	KFlushInv               // processor received a commit-time flush-invalidate
	KTIDGrant               // the vendor granted a TID
	KRead                   // processor's first speculative read of a word
	KOverflow               // cache overflow: a line was evicted to make room
	KBarrier                // processor arrived at a phase barrier
	numKinds
)

// NumKinds is the size of the event taxonomy.
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	KLoad:       "Load",
	KForward:    "Forward",
	KFill:       "Fill",
	KSkip:       "Skip",
	KProbe:      "Probe",
	KProbeResp:  "ProbeResp",
	KMark:       "Mark",
	KCommit:     "Commit",
	KCommitLine: "CommitLine",
	KCommitDone: "CommitDone",
	KInv:        "Inv",
	KInvAck:     "InvAck",
	KAbort:      "Abort",
	KViolation:  "Violation",
	KWriteBack:  "WriteBack",
	KFlush:      "Flush",
	KFlushResp:  "FlushResp",
	KFlushInv:   "FlushInv",
	KTIDGrant:   "TIDGrant",
	KRead:       "Read",
	KOverflow:   "Overflow",
	KBarrier:    "Barrier",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName resolves a wire name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalJSON emits the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a wire name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kk, ok := KindByName(s)
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", s)
	}
	*k = kk
	return nil
}

// Event is one observed protocol action. The struct is flat and
// allocation-free on purpose: emitters construct it on the stack only after
// the observer nil-check passes, so disabled observation costs nothing.
//
// Field use is kind-specific; unused fields are zero (and omitted from the
// JSONL wire form):
//
//	Cycle  simulation time of the action
//	Node   the reporting node (directory id, processor id, or the vendor node)
//	Peer   the counterparty node (-1 when there is none)
//	TID    the primary transaction: the granted/probed/skipped/committing TID
//	TID2   a secondary TID: the answering NSTID (KSkip/KProbeResp/KAbort),
//	       the processor's own TID (KInv), or the write-back tag (KWriteBack)
//	Addr   the cache-line base (or word address for KRead)
//	Words  the word mask the action applies to
//	SR/SM  the receiving line's speculative masks (KInv)
//	Arg    a kind-specific scalar: the owner node (KLoad/KForward/KFlushResp),
//	       the read value (KRead), the read-set size (KCommit), the previous
//	       owner (KCommitLine), the processor phase (KViolation), write=1
//	       (KProbe), remove=1 (KWriteBack), dirty=1 (KOverflow), the program
//	       phase (KBarrier)
//	Data   the line payload carried by data-bearing actions
//	Set    a rendered node set: the sharers list (KLoad/KCommitLine) or the
//	       write-set directories (KCommit)
type Event struct {
	Cycle uint64   `json:"c"`
	Kind  Kind     `json:"k"`
	Node  int      `json:"n"`
	Peer  int      `json:"p"`
	TID   uint64   `json:"tid,omitempty"`
	TID2  uint64   `json:"tid2,omitempty"`
	Addr  uint64   `json:"addr,omitempty"`
	Words uint64   `json:"words,omitempty"`
	SR    uint64   `json:"sr,omitempty"`
	SM    uint64   `json:"sm,omitempty"`
	Arg   int64    `json:"arg,omitempty"`
	Data  []uint64 `json:"data,omitempty"`
	Set   string   `json:"set,omitempty"`
}

// Observer receives every protocol event of a run. Implementations must be
// passive (never mutate simulator state) and need not be goroutine-safe: a
// simulation is single-threaded, so events arrive sequentially.
type Observer interface {
	Event(e Event)
}

// SampleObserver is implemented by sinks that additionally want the periodic
// sampler's time-series records.
type SampleObserver interface {
	Sample(s Sample)
}

// Sample is one record of the periodic time-series sampler: a snapshot of
// the protocol-level backpressure signals the paper's methodology tracks.
type Sample struct {
	// Cycle is the simulation time of the snapshot.
	Cycle uint64 `json:"c"`
	// NSTIDMin/NSTIDMax are the lowest and highest Now Serving TID across
	// directories; their spread is how far commit service has fanned out.
	NSTIDMin uint64 `json:"nstid_min"`
	NSTIDMax uint64 `json:"nstid_max"`
	// TIDNext is the vendor's next TID to grant; TIDNext - NSTIDMin (LagMax)
	// is the worst-case NSTID lag behind TID issuance.
	TIDNext uint64 `json:"tid_next"`
	LagMax  uint64 `json:"lag_max"`
	// Marks counts lines currently marked (pre-committed) across all
	// directories — outstanding commit work.
	Marks int `json:"marks"`
	// DirBusy is the mean fraction of the interval the directory pipelines
	// were occupied.
	DirBusy float64 `json:"dir_busy"`
	// DirEntries counts resident directory-cache entries across nodes (the
	// bounded cache's occupancy, or total allocated entries when unbounded).
	DirEntries int `json:"dir_entries"`
	// LinkUtil is the per-directed-link mesh utilization over the interval,
	// flattened as [direction][node] (east, west, north, south).
	LinkUtil []float64 `json:"link_util,omitempty"`
}

// FuncObserver adapts a plain function to the Observer interface.
type FuncObserver func(e Event)

// Event calls the function.
func (f FuncObserver) Event(e Event) { f(e) }
