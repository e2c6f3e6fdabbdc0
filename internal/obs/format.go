package obs

import "fmt"

// Line renders one event as a human-readable trace line, reporting ok=false
// for the kinds it has no text form for (fills, probes, invalidation acks,
// commit-done, flush requests, overflows, barriers). cmd/tccwalk prints
// the Section 2.2 walkthroughs with it.
func Line(e Event) (line string, ok bool) {
	switch e.Kind {
	case KTIDGrant:
		return fmt.Sprintf("[%d] vendor grants T%d to p%d", e.Cycle, e.TID, e.Peer), true
	case KProbeResp:
		return fmt.Sprintf("[%d] dir%d answers p%d's probe for T%d: NSTID=%d", e.Cycle, e.Node, e.Peer, e.TID, e.TID2), true
	case KSkip:
		return fmt.Sprintf("[%d] dir%d skip T%d (NSTID %d)", e.Cycle, e.Node, e.TID, e.TID2), true
	case KMark:
		return fmt.Sprintf("[%d] dir%d mark line %#x words=%#x by T%d (p%d)", e.Cycle, e.Node, e.Addr, e.Words, e.TID, e.Peer), true
	case KCommitLine:
		return fmt.Sprintf("[%d] dir%d commit T%d line %#x words=%#x sharers=%v oldOwner=%d", e.Cycle, e.Node, e.TID, e.Addr, e.Words, e.Set, e.Arg), true
	case KAbort:
		return fmt.Sprintf("[%d] dir%d abort T%d (NSTID %d)", e.Cycle, e.Node, e.TID, e.TID2), true
	case KForward:
		return fmt.Sprintf("[%d] dir%d load %#x from p%d: forward flush to owner %d", e.Cycle, e.Node, e.Addr, e.Peer, e.Arg), true
	case KLoad:
		return fmt.Sprintf("[%d] dir%d serve load %#x -> p%d data=%v sharers=%v owner=%d", e.Cycle, e.Node, e.Addr, e.Peer, e.Data, e.Set, e.Arg), true
	case KFlushResp:
		return fmt.Sprintf("[%d] dir%d flushResp %#x from p%d data=%v owner=%d", e.Cycle, e.Node, e.Addr, e.Peer, e.Data, e.Arg), true
	case KWriteBack:
		return fmt.Sprintf("[%d] dir%d WB %#x from p%d tag=%d words=%#x data=%v remove=%v", e.Cycle, e.Node, e.Addr, e.Peer, e.TID2, e.Words, e.Data, e.Arg == 1), true
	case KRead:
		return fmt.Sprintf("[%d] p%d read %#x = v%d", e.Cycle, e.Node, e.Addr, e.Arg), true
	case KCommit:
		return fmt.Sprintf("[%d] p%d COMMIT T%d writeDirs=%v reads=%d", e.Cycle, e.Node, e.TID, e.Set, e.Arg), true
	case KInv:
		return fmt.Sprintf("[%d] p%d inv %#x words=%#x committer=T%d SR=%#x SM=%#x tid=%d", e.Cycle, e.Node, e.Addr, e.Words, e.TID, e.SR, e.SM, e.TID2), true
	case KViolation:
		return fmt.Sprintf("[%d] p%d VIOLATE phase=%d tid=%d", e.Cycle, e.Node, e.Arg, e.TID), true
	}
	return "", false
}
