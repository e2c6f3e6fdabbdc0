package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench carries one invocation's tracer and tallies. Operations may be
// recorded from several goroutines (the jobs workload's clients).
type bench struct {
	o  options
	tr *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	logged    int
	refusedN  int
	cur       phaseResult
	counts    map[string]int
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time, see cpuTime
	opMs   []float64     // one closed-loop operation each
	forkMs []float64     // forked jobs (jobs workload)
	instr  uint64        // simulated committed instructions of the operations
	jobs   []jobRecord
}

func newBench(o options) *bench {
	return &bench{o: o, tr: newTracer(), counts: map[string]int{}}
}

// maxLogged bounds how many failures are described on standard error.
const maxLogged = 10

func (b *bench) failLocked(format string, args ...any) {
	b.failed++
	if b.logged < maxLogged {
		b.logged++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// check counts one attempted oracle check outside any operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failLocked(format, args...)
	}
}

// opKind separates the latency samples of primary operations from forks.
type opKind int

const (
	kindOp opKind = iota
	kindFork
)

// op runs one closed-loop operation under a root span named name. fn
// returns the simulated instructions it committed; an error (a failed call
// or a failed oracle) counts the operation as failed, and it is neither
// retried nor timed.
func (b *bench) op(kind opKind, name, id string, fn func(parent int) (uint64, error)) {
	sp := b.tr.begin(name, id, 0)
	t0 := time.Now()
	instr, err := fn(sp)
	d := time.Since(t0)
	b.tr.end(sp)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	b.counts[name]++
	if err != nil {
		b.failLocked("%s %s: %v", name, id, err)
		return
	}
	if kind == kindFork {
		b.cur.forkMs = append(b.cur.forkMs, ms(d))
		return
	}
	b.cur.opMs = append(b.cur.opMs, ms(d))
	b.cur.instr += instr
}

// refused counts one submission the queue turned away.
func (b *bench) refused() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refusedN++
}

// record keeps one finished job's runner-side measurements.
func (b *bench) record(j jobRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cur.jobs = append(b.cur.jobs, j)
}

// phase runs fn as one timed phase and returns what it measured.
func (b *bench) phase(fn func()) phaseResult {
	b.mu.Lock()
	b.cur = phaseResult{}
	b.mu.Unlock()
	c0, t0 := cpuTime(), time.Now()
	fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	b.mu.Lock()
	defer b.mu.Unlock()
	ph := b.cur
	ph.wall, ph.cpu = wall, cpu
	b.cur = phaseResult{}
	return ph
}

// sampleCounts reports how many operations of each kind ran.
func (b *bench) sampleCounts() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]int{}
	for k, v := range b.counts {
		out[k] = v
	}
	return out
}

// host is the metadata printed with every result.
type host struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

func hostInfo(o options) host {
	return host{
		Workload:   o.workload,
		Seed:       o.seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(),
		Trace:      o.trace,
		Seconds:    o.seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the commit of the working directory's repository, or
// "unknown" when the benchmark runs outside a git checkout (an exported
// tree) or from a subdirectory of an unrelated repository.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return "unknown"
	}
	if t, err := filepath.EvalSymlinks(strings.TrimSpace(string(top))); err != nil || !sameDir(t, wd) {
		return "unknown"
	}
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(rev))
}

func sameDir(a, b string) bool {
	b, err := filepath.EvalSymlinks(b)
	return err == nil && filepath.Clean(a) == filepath.Clean(b)
}

// cpuTime is the CPU time the process has used, all threads together. With
// paravirtual steal accounting the kernel leaves out time the hypervisor
// gave to other machines (it reports that in /proc/stat instead), so unlike
// wall time it does not grow while the virtual CPUs are descheduled.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds reads the time stolen from all virtual CPUs so far
// (/proc/stat, in USER_HZ ticks of 1/100 s).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
