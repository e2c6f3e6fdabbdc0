package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ---------------------------------------------------------------------------
// JSONL stream.

const (
	// StreamSchema identifies the JSONL event-stream document type.
	StreamSchema = "scalabletcc/events"
	// StreamVersion is bumped whenever a field changes meaning or is
	// removed; additions keep the version.
	StreamVersion = 1
)

// blockSize is the size at which a JSONLStream hands its buffered lines to
// its writer. Large enough that a run's writes are few; small enough that
// an SSE subscriber tailing a running job is never far behind.
const blockSize = 64 << 10

// streamHeader is the first line of every JSONL event stream.
type streamHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// sampleLine wraps a Sample with its "k" discriminator.
type sampleLine struct {
	K string `json:"k"`
	Sample
}

// JSONLStream streams events (and sampler records) as JSON lines. The first
// line is a schema header; every following line carries a "k" discriminator —
// an event kind name, or "sample" for a sampler record. Output depends only
// on the event sequence, so equal-seed runs produce byte-identical streams.
//
// Lines are buffered and handed to w in blocks of whole lines: one Write
// once the block reaches 64 KiB, and one at each Flush. A run must call
// Flush when it ends, and before it records how many bytes w has taken.
// Event lines are encoded straight into the block, so a warm event
// allocates nothing. Write errors are sticky; Flush reports the first
// one.
type JSONLStream struct {
	w      io.Writer
	buf    []byte
	err    error
	header bool
}

// NewJSONLStream returns a stream writing to w, schema header first.
func NewJSONLStream(w io.Writer) *JSONLStream {
	return newStream(w, false)
}

// ResumeJSONLStream returns a stream continuing an existing
// scalabletcc/events byte stream: the schema header is taken to be already
// emitted (it lives in the replayed prefix a resumed run writes first), so
// the next line written is an event, not a second header.
func ResumeJSONLStream(w io.Writer) *JSONLStream {
	return newStream(w, true)
}

// newStream sizes the buffer for a block plus the line that completes it,
// so a warm stream never grows it.
func newStream(w io.Writer, header bool) *JSONLStream {
	return &JSONLStream{w: w, buf: make([]byte, 0, blockSize+blockSize/8), header: header}
}

// ready reports whether the stream can take another line, writing the
// schema header first if this is the first line.
func (j *JSONLStream) ready() bool {
	if j.err == nil && !j.header {
		j.header = true
		j.marshalLine(streamHeader{StreamSchema, StreamVersion})
	}
	return j.err == nil
}

// marshalLine appends v's json.Marshal encoding as one line: the path for
// the rare header and sample lines.
func (j *JSONLStream) marshalLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		j.err = fmt.Errorf("obs: marshal event: %w", err)
		return
	}
	j.buf = append(append(j.buf, b...), '\n')
	j.endLine()
}

// endLine writes the block once a completed line has filled it.
func (j *JSONLStream) endLine() {
	if len(j.buf) >= blockSize {
		j.Flush()
	}
}

// Event writes one event line.
func (j *JSONLStream) Event(e Event) {
	if j.ready() {
		j.buf = append(appendEvent(j.buf, e), '\n')
		j.endLine()
	}
}

// Sample writes one sampler line, discriminated by "k":"sample".
func (j *JSONLStream) Sample(s Sample) {
	if j.ready() {
		j.marshalLine(sampleLine{"sample", s})
	}
}

// Flush hands the buffered lines to the writer and returns the first write
// or encode error encountered.
func (j *JSONLStream) Flush() error {
	if j.err == nil && len(j.buf) > 0 {
		_, j.err = j.w.Write(j.buf)
		j.buf = j.buf[:0]
	}
	return j.err
}

// ---------------------------------------------------------------------------
// Bounded ring buffer.

// RingBuffer retains the most recent events, overwriting the oldest once
// capacity is reached — a crash-dump tail for debugging wedged or misbehaving
// runs without the cost of a full stream.
type RingBuffer struct {
	buf  []Event
	next int
	seen uint64
}

// NewRing returns a buffer retaining the last capacity events.
func NewRing(capacity int) *RingBuffer {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &RingBuffer{buf: make([]Event, 0, capacity)}
}

// Event records e, evicting the oldest retained event when full.
func (r *RingBuffer) Event(e Event) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Events returns the retained events, oldest first.
func (r *RingBuffer) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Seen returns the total number of events observed.
func (r *RingBuffer) Seen() uint64 { return r.seen }

// Dropped returns how many events were evicted to stay within capacity.
func (r *RingBuffer) Dropped() uint64 { return r.seen - uint64(len(r.buf)) }

// ---------------------------------------------------------------------------
// Counting aggregator.

// Counter tallies events by kind. Its totals reconcile with a run's Results
// counters (commits, violations, per-kind message counts), which makes it
// the cheap always-on aggregation sink for sweeps.
type Counter struct {
	counts [NumKinds]uint64
}

// NewCounter returns an empty aggregator.
func NewCounter() *Counter { return &Counter{} }

// Event tallies e.
func (c *Counter) Event(e Event) { c.counts[e.Kind]++ }

// Count returns the tally for one kind.
func (c *Counter) Count(k Kind) uint64 { return c.counts[k] }

// Total returns the tally across all kinds.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Counts returns the per-kind tallies indexed by Kind.
func (c *Counter) Counts() [NumKinds]uint64 { return c.counts }

// ByName returns the non-zero tallies keyed by kind wire name (the form the
// tccbench JSON cells embed).
func (c *Counter) ByName() map[string]uint64 {
	out := make(map[string]uint64)
	for k, n := range c.counts {
		if n > 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Fan-out.

type tee struct {
	obs []Observer
}

// Tee fans events (and samples, for sinks that take them) out to every
// observer in order. A nil entry is skipped; Tee() with no live observers
// returns nil so the emitters' nil-check disables observation entirely.
func Tee(list ...Observer) Observer {
	var live []Observer
	for _, o := range list {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{obs: live}
}

func (t *tee) Event(e Event) {
	for _, o := range t.obs {
		o.Event(e)
	}
}

func (t *tee) Sample(s Sample) {
	for _, o := range t.obs {
		if so, ok := o.(SampleObserver); ok {
			so.Sample(s)
		}
	}
}
