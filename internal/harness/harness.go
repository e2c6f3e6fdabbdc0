// Package harness is the worker-pool job scheduler the experiment runners
// fan out on. Simulation runs are fully independent (each builds its own
// system, program, and RNG from the seed), so a parameter sweep is an
// embarrassingly parallel job matrix; this package executes such a matrix
// across a bounded set of goroutines while keeping every observable output
// deterministic:
//
//   - results are keyed and ordered by job index, never by completion
//     order, so a consumer that prints or reduces them is byte-identical
//     to a sequential run;
//   - on failure the error reported is the one from the lowest-index
//     failed job among those that ran, and with Workers = 1 the schedule
//     degenerates to exactly the sequential loop (jobs run in index order
//     and execution stops at the first error);
//   - panics inside a job are recovered and surfaced as that job's error
//     (with the stack), so one bad cell cannot take down a whole sweep.
//
// A job that must stop early stops itself (a simulation cell at a cycle
// boundary), so the pool never leaves a job running behind it.
//
// The progress callback is the one deliberately non-deterministic output:
// it fires in completion order, which is the quantity a progress meter
// wants.
package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Config parameterizes one Run.
type Config struct {
	// Workers is the number of goroutines jobs are fanned across.
	// Values < 1 mean runtime.GOMAXPROCS(0); the pool never exceeds the
	// number of jobs. Workers = 1 reproduces the sequential loop exactly.
	Workers int

	// OnProgress, if non-nil, is called after each job completes with
	// (completed, total). Calls are serialized and completed counts up
	// 1, 2, ..., total; which job each call follows is completion order.
	OnProgress func(done, total int)
}

// Run executes fn(0..n-1) across the worker pool and returns the n results
// ordered by job index. Once any job fails, idle workers stop claiming new
// jobs; after in-flight jobs drain, Run reports the error of the
// lowest-index failed job.
func Run[T any](cfg Config, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex // serializes OnProgress and guards done
		done   int
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				results[i], errs[i] = protect(i, fn)
				if errs[i] != nil {
					failed.Store(true)
				}
				if cfg.OnProgress != nil {
					// Count under the lock that serializes the callback, so
					// the counts it sees are 1, 2, ..., n in order.
					mu.Lock()
					done++
					cfg.OnProgress(done, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Map is Run over a slice of inputs: out[i] = fn(i, in[i]).
func Map[I, O any](cfg Config, in []I, fn func(i int, item I) (O, error)) ([]O, error) {
	return Run(cfg, len(in), func(i int) (O, error) { return fn(i, in[i]) })
}

// protect runs fn(i), converting a panic into an error carrying the stack.
func protect[T any](i int, fn func(int) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: job %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}
