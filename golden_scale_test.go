package scalabletcc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"scalabletcc/tcc"
)

// The paper-scale golden fixture pins every protocol where the paper makes
// its claims: one row per Table 3 application at 16, 32 and 64 processors,
// for tcc, baseline, tl2 and eager, at the perfbench paper-mix scale. A row
// records the run's summary and the SHA-256 of its commit log and of its
// scalabletcc/events v1 JSONL stream, so one moved cycle, commit or event
// fails it. The 64-processor rows skip under -short.
//
// Regenerate with:
//
//	go test -run TestGoldenScaleFixture -update .
const goldenScalePath = "testdata/golden_scale.json"

// plainSummary is tcc.Summary without its v1 wire form, so a row keeps the
// raw breakdown cycles instead of rounded fractions.
type plainSummary tcc.Summary

// goldenScaleRow is the recorded fingerprint of one paper-scale run.
type goldenScaleRow struct {
	Name     string       `json:"name"`
	Protocol string       `json:"protocol"`
	App      string       `json:"app"`
	Procs    int          `json:"procs"`
	Scale    float64      `json:"scale"`
	Seed     uint64       `json:"seed"`
	Summary  plainSummary `json:"summary"`
	// CommitLogSHA256 digests the commit log, one json.Marshal line per
	// record in log order.
	CommitLogSHA256 string `json:"commit_log_sha256"`
	// EventsSHA256 digests the JSONL event stream tccsim -trace-json writes.
	EventsSHA256 string `json:"events_sha256"`
}

func (r goldenScaleRow) long() bool { return r.Procs >= 64 }

// goldenScaleConfigs is every Table 3 application at 16, 32 and 64
// processors on every registered protocol.
func goldenScaleConfigs() []goldenScaleRow {
	var rows []goldenScaleRow
	for _, protocol := range []string{"tcc", "baseline", "tl2", "eager"} {
		for _, procs := range []int{16, 32, 64} {
			for _, p := range tcc.Profiles() {
				rows = append(rows, goldenScaleRow{
					Name:     fmt.Sprintf("%s-%s-%dp", protocol, p.Name, procs),
					Protocol: protocol, App: p.Name, Procs: procs, Scale: 0.05, Seed: 1,
				})
			}
		}
	}
	return rows
}

// runGoldenScaleRow runs one row's configuration and fills in its measured
// half.
func runGoldenScaleRow(t *testing.T, r goldenScaleRow) goldenScaleRow {
	cfg := tcc.DefaultConfig(r.Procs)
	cfg.Seed = r.Seed
	cfg.CollectCommitLog = true
	prog := tcc.MustProfile(r.App).Scale(r.Scale).Build(r.Procs, r.Seed)
	sys, err := tcc.NewSystemFor(r.Protocol, cfg, prog)
	if err != nil {
		t.Errorf("%s: %v", r.Name, err)
		return r
	}
	events := sha256.New()
	stream := tcc.NewJSONLObserver(events)
	sys.Observe(stream)
	res, err := sys.Run()
	if err == nil {
		err = stream.Flush()
	}
	if err != nil {
		t.Errorf("%s: %v", r.Name, err)
		return r
	}
	log := sha256.New()
	enc := json.NewEncoder(log)
	for _, rec := range res.CommitLog {
		if err := enc.Encode(rec); err != nil {
			t.Errorf("%s: %v", r.Name, err)
			return r
		}
	}
	r.Summary = plainSummary(res.Summary)
	r.CommitLogSHA256 = hex.EncodeToString(log.Sum(nil))
	r.EventsSHA256 = hex.EncodeToString(events.Sum(nil))
	return r
}

func TestGoldenScaleFixture(t *testing.T) {
	rows := goldenScaleConfigs()
	ran := func(i int) bool { return !(rows[i].long() && testing.Short()) }
	// The rows are independent machines; run them on every CPU.
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i] = runGoldenScaleRow(t, rows[i])
			}
		}()
	}
	for i := range rows {
		if ran(i) {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkFixture(t, goldenScalePath, rows, ran)
}
