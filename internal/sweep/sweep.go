// Package sweep executes independent simulator runs concurrently.
//
// The experiments layer enumerates dozens of configurations per figure
// (scenario × nodes × offloading degree × LeWI/DROM × policy), and each
// configuration is one self-contained, deterministic, single-threaded
// simulator run on its own simtime.Env. The engine exploits exactly that
// two-level structure: a bounded worker pool executes the runs
// concurrently while results are collected by spec index, so output
// assembled from them is byte-identical to a sequential sweep regardless
// of completion order.
//
// Jobs must not share mutable state: everything a run touches (machine
// model, recorder, task graphs, RNGs) must be built inside the job. The
// sanctioned shared structures are expander.Store and nbody.Trajectories,
// which are safe for concurrent use and compute each entry once,
// whichever job asks first, from its key alone.
//
// A Hook attaches two service-layer concerns without touching the
// output contract: a per-job completion callback (the checkpointer of
// internal/jobs records each finished spec through it) and a
// context that stops the draw of new jobs when a sweep must be
// abandoned mid-flight (server shutdown, job cancellation, timeout).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Engine is a bounded worker pool for independent simulator runs. A nil
// Engine is valid and runs sequentially.
type Engine struct {
	workers int
	hook    Hook
}

// Hook augments Run with service-layer callbacks. The zero Hook is a
// no-op.
type Hook struct {
	// Ctx, when non-nil, cancels the sweep: once Ctx is done no new
	// jobs are drawn. Jobs already started run to completion (simulator
	// runs are not interruptible mid-run), so Run returns after the
	// in-flight jobs finish. Results of jobs never drawn keep their
	// zero values; callers that cancel must check Ctx themselves and
	// discard the partial output.
	Ctx context.Context
	// Done, when non-nil, is called with the job's index immediately
	// after job(i) returns normally, in the goroutine that ran it. With
	// more than one worker calls are concurrent; Done must be safe for
	// concurrent use. It is not called for jobs that panic or were
	// never drawn.
	Done func(i int)
}

// New returns an engine running up to workers jobs concurrently.
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{workers: workers}
}

// WithHook returns a copy of the engine with the given hook attached.
// A nil receiver yields a sequential hooked engine.
func (e *Engine) WithHook(h Hook) *Engine {
	ne := &Engine{workers: 1, hook: h}
	if e != nil {
		ne.workers = e.workers
	}
	return ne
}

// Workers reports the engine's concurrency bound.
func (e *Engine) Workers() int {
	if e == nil || e.workers < 1 {
		return 1
	}
	return e.workers
}

// JobPanic is the value Run re-panics with when a job of a multi-worker
// sweep panics: it preserves the job's original panic value and the
// stack trace captured at the panic site, which the plain re-panic in
// the caller's goroutine would otherwise flatten away. The sequential
// (one worker) path does not wrap — there the original panic propagates
// natively with its stack intact.
type JobPanic struct {
	// Index is the panicking job's spec index (the lowest one when
	// several jobs panic, so failures surface deterministically).
	Index int
	// Value is the job's original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery, formatted
	// by runtime/debug.Stack.
	Stack []byte
}

// Error renders the panic with the original stack appended, so an
// uncaught JobPanic still shows where the job blew up.
func (p *JobPanic) Error() string {
	return fmt.Sprintf("sweep: job %d panicked: %v\n\njob stack:\n%s", p.Index, p.Value, p.Stack)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (p *JobPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// canceled reports whether the hook's context is done.
func (h Hook) canceled() bool {
	return h.Ctx != nil && h.Ctx.Err() != nil
}

// Run executes job(0) … job(n-1). With one worker the jobs run in the
// calling goroutine in index order — exactly the historical sequential
// sweep, panics included. With more workers the jobs are drawn from a
// shared counter by min(n, workers) goroutines; a panicking job stops
// the draw, and after all in-flight jobs finish Run re-panics in the
// caller with a *JobPanic carrying the lowest-index panic value and its
// original stack. If the engine's hook context is canceled, no further
// jobs are drawn and Run returns after the in-flight ones complete.
func (e *Engine) Run(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	var hook Hook
	if e != nil {
		hook = e.hook
	}
	workers := e.Workers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if hook.canceled() {
				return
			}
			job(i)
			if hook.Done != nil {
				hook.Done(i)
			}
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked *JobPanic
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if hook.canceled() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				ok := func() (ok bool) {
					defer func() {
						if r := recover(); r != nil {
							stack := debug.Stack()
							mu.Lock()
							if panicked == nil || i < panicked.Index {
								panicked = &JobPanic{Index: i, Value: r, Stack: stack}
							}
							mu.Unlock()
							next.Store(int64(n)) // stop drawing new jobs
						}
					}()
					job(i)
					return true
				}()
				if ok && hook.Done != nil {
					hook.Done(i)
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs one job per spec through the engine and returns the results
// in spec order, independent of completion order. Specs skipped by a
// hook-context cancellation keep the zero value of R.
func Map[S, R any](e *Engine, specs []S, run func(S) R) []R {
	out := make([]R, len(specs))
	e.Run(len(specs), func(i int) { out[i] = run(specs[i]) })
	return out
}
