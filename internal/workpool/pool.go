// Package workpool provides bounded worker pools for the batch conf()
// fan-out in internal/pdb (one task per answer).
//
// A Pool is a token semaphore, not a set of long-lived workers: Run
// hands tasks to fresh goroutines only while tokens are available and
// executes the rest on the calling goroutine. Saturation therefore
// degrades to sequential execution instead of queueing. The one caller,
// pdb.ConfWith, hands Run a flat batch with one task per answer; each
// task evaluates its answer on its own goroutine, and no task calls Run
// again.
//
// Most callers thread an explicit *Pool (each façade DB owns one, so
// sizing one DB never affects another); a nil *Pool means the shared
// Default pool.
package workpool

import (
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Pool is one bounded worker pool. The zero value is not ready; use New.
// A nil *Pool is valid everywhere and means the Default pool.
type Pool struct {
	mu  sync.Mutex
	sem chan struct{}
	met *obs.Metrics
}

// New returns a pool with parallelism n (n < 1 is treated as 1, fully
// sequential).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n-1)}
}

// Default is the process-wide pool used when callers pass a nil *Pool.
// Resizing it affects every such caller; components that want isolated
// sizing own a Pool (the façade DB does).
var Default = New(runtime.GOMAXPROCS(0))

// or resolves a nil receiver to the Default pool.
func (p *Pool) or() *Pool {
	if p == nil {
		return Default
	}
	return p
}

// Resize sets the pool's parallelism to n: Run may offload tasks to at
// most n−1 helper goroutines, so one batch evaluates at most n answers
// at a time, each on one goroutine. Concurrent Run callers each count
// themselves — k concurrent batches share the n−1 helpers but still run
// k caller goroutines, so total concurrency is k+n−1, not n. n < 1 is
// treated as 1 (fully sequential). Tokens already held by running tasks drain
// against the old semaphore, so Resize is safe to call while
// evaluations are in flight.
func (p *Pool) Resize(n int) {
	p = p.or()
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	p.sem = make(chan struct{}, n-1)
	p.mu.Unlock()
}

// Parallelism returns the pool's configured total parallelism.
func (p *Pool) Parallelism() int {
	p = p.or()
	p.mu.Lock()
	defer p.mu.Unlock()
	return cap(p.sem) + 1
}

// SetMetrics attaches a metrics registry recording the pool's task
// placement: offloaded vs inline tasks and offloaded tasks in flight
// (the saturation/utilization signal). A nil registry detaches.
func (p *Pool) SetMetrics(m *obs.Metrics) {
	p = p.or()
	p.mu.Lock()
	p.met = m
	p.mu.Unlock()
}

// Run executes every task and returns when all have finished. Tasks
// beyond the first are offloaded to new goroutines while pool tokens are
// available; the remainder (always including the first task) run on the
// calling goroutine.
//
// Panics are contained, never propagated off a pool goroutine (which
// would kill the process): every task runs under a recover, the batch
// always runs to completion, and the first panic — promoted to a
// *fault.PanicError — is rethrown on the caller once all siblings have
// returned. Run therefore never orphans a sibling: by the time the
// panic resumes unwinding, no batch goroutine is left touching shared
// state.
func (p *Pool) Run(tasks ...func()) {
	p = p.or()
	if len(tasks) == 0 {
		return
	}
	p.mu.Lock()
	s, met := p.sem, p.met
	p.mu.Unlock()
	var (
		panicOnce sync.Once
		panicked  *fault.PanicError
	)
	contain := func(f func()) {
		defer func() {
			if v := recover(); v != nil {
				pe, first := fault.Promote(v, "workpool")
				if first {
					met.RecordPanicRecovered()
				}
				panicOnce.Do(func() { panicked = pe })
			}
		}()
		f()
	}
	if cap(s) == 0 || len(tasks) == 1 {
		for _, t := range tasks {
			met.RecordPoolInline()
			contain(t)
		}
		if panicked != nil {
			panic(panicked)
		}
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks[1:] {
		select {
		case s <- struct{}{}:
			met.RecordPoolSpawn()
			wg.Add(1)
			go func(f func()) {
				defer wg.Done()
				defer func() { <-s }()
				defer met.RecordPoolSpawnDone()
				contain(f)
			}(t)
		default:
			met.RecordPoolInline()
			contain(t)
		}
	}
	met.RecordPoolInline()
	contain(tasks[0])
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
