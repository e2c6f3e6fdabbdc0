package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into the system, recorded from the benchmark's own
// files around the public function it wraps.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Op identifies the operation the span serves: the cell or job ID
	// shared by every span of one request.
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory while on; begin returns 0 and end ignores
// it while off, so untraced phases pay two branches per call.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name, op string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		StartNs: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// setOp relabels a span's operation once its ID is known.
func (t *tracer) setOp(id int, op string) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Op = op
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration, which callers use
// whether or not tracing is on.
func (t *tracer) timed(name, op string, parent int, fn func() error) (time.Duration, error) {
	sp := t.begin(name, op, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(sp)
	return d, err
}

// snapshot returns the recorded spans with self time filled in: a span's
// duration minus the part of it its children's intervals cover.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		out[i].SelfNs = out[i].EndNs - out[i].StartNs - covered(children[out[i].ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNs < ss[j].StartNs })
	var total, end int64
	for _, s := range ss {
		start := s.StartNs
		if start < end {
			start = end
		}
		if s.EndNs > start {
			total += s.EndNs - start
			end = s.EndNs
		}
	}
	return total
}

// durationsMs returns the durations of every span named name, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// spanFile is the JSON document a traced run leaves in the scratch
// directory.
type spanFile struct {
	Host  host               `json:"host"`
	Self  map[string]float64 `json:"self_ms_by_name"`
	Spans []span             `json:"spans"`
}

// writeSpans dumps every span, plus self time summed by span name.
func writeSpans(path string, h host, spans []span) error {
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.SelfNs) / 1e6
	}
	data, err := json.Marshal(spanFile{Host: h, Self: self, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---------------------------------------------------------------------------
// CPU profile, bucketed by package.

// profBuckets are the prof.* metric suffixes, in report order.
var profBuckets = []string{"sim", "mesh", "cache", "mem", "core", "workload", "obs", "verify",
	"runner", "tl2", "eager", "baseline", "json", "gc", "net", "syscall", "other"}

// gcFunc matches runtime functions that allocate or collect memory.
var gcFunc = regexp.MustCompile(`gc|GC|scan|mark|sweep|malloc|heap|span|mcache|mcentral|grey|findObject|wbBuf|Barrier|memclr|newobject|makeslice|growslice|nextFree`)

// bucketOf maps a profiled function name to its prof.* bucket.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if p, ok := strings.CutPrefix(pkg, "scalabletcc/internal/"); ok {
		for _, b := range profBuckets {
			if p == b {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case pkg == "runtime" && gcFunc.MatchString(fn):
		return "gc"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" || pkg == "os":
		return "syscall"
	}
	return "other"
}

// cpuProfile records a CPU profile to path until stop is called.
func cpuProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profShares runs `go tool pprof -top` over the profile and returns each
// bucket's share of the total self (flat) time.
func profShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		flat[bucketOf(fn)] += v
		total += v
	}
	if !header {
		return nil, fmt.Errorf("go tool pprof: unexpected output")
	}
	shares := map[string]float64{}
	for _, b := range profBuckets {
		if total > 0 {
			shares[b] = flat[b] / total
		}
	}
	return shares, nil
}

func scratchPath(o options, suffix string) string {
	return filepath.Join(o.scratch, fmt.Sprintf("%s-seed%d%s", o.workload, o.seed, suffix))
}
