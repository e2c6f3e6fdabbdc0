package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestResultsOrderedByIndex: completion order is scrambled by staggered
// sleeps, but results must come back keyed by job index.
func TestResultsOrderedByIndex(t *testing.T) {
	const n = 32
	out, err := Run(Config{Workers: 8}, n, func(i int) (int, error) {
		time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d results", len(out))
	}
	for i, v := range out {
		if v != i*3 {
			t.Errorf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestPanicRecovered(t *testing.T) {
	_, err := Run(Config{Workers: 4}, 8, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "job 3 panicked: boom") {
		t.Fatalf("error does not identify the panicking job: %v", err)
	}
	if !strings.Contains(err.Error(), "harness_test.go") {
		t.Fatalf("error lacks a stack trace: %v", err)
	}
}

// TestSequentialStopsAtFirstError: with one worker the schedule must
// degenerate to the sequential loop — jobs after the first failure never
// start.
func TestSequentialStopsAtFirstError(t *testing.T) {
	var ran []int
	want := errors.New("job 2 failed")
	_, err := Run(Config{Workers: 1}, 6, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 2 {
			return 0, want
		}
		return i, nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if fmt.Sprint(ran) != "[0 1 2]" {
		t.Fatalf("sequential mode ran jobs %v", ran)
	}
}

// TestLowestIndexErrorWins: when several jobs fail, the reported error is
// the lowest-index one among those that ran, independent of completion
// order.
func TestLowestIndexErrorWins(t *testing.T) {
	_, err := Run(Config{Workers: 4}, 4, func(i int) (int, error) {
		time.Sleep(time.Duration(4-i) * time.Millisecond) // higher index fails first
		return 0, fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want the job-0 error", err)
	}
}

func TestProgressCallback(t *testing.T) {
	const n = 10
	var (
		mu    sync.Mutex
		seen  []int
		total int
	)
	_, err := Run(Config{Workers: 3, OnProgress: func(done, tot int) {
		mu.Lock()
		seen = append(seen, done)
		total = tot
		mu.Unlock()
	}}, n, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != n || len(seen) != n {
		t.Fatalf("progress fired %d times (total reported %d), want %d", len(seen), total, n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v is not monotonically complete", seen)
		}
	}
}

func TestDefaultsAndEmpty(t *testing.T) {
	out, err := Run(Config{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty run: out=%v err=%v", out, err)
	}
	// Workers <= 0 falls back to GOMAXPROCS; more workers than jobs is fine.
	out, err = Run(Config{Workers: -1}, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("default-worker run: out=%v err=%v", out, err)
	}
}

func TestMap(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	out, err := Map(Config{Workers: 2}, in, func(i int, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[1 2 3]" {
		t.Fatalf("Map out = %v", out)
	}
}
