package workpool

import (
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func TestRunExecutesAll(t *testing.T) {
	p := New(4)
	for _, n := range []int{1, 2, 8} {
		p.Resize(n)
		var count atomic.Int64
		tasks := make([]func(), 37)
		for i := range tasks {
			tasks[i] = func() { count.Add(1) }
		}
		p.Run(tasks...)
		if count.Load() != 37 {
			t.Fatalf("parallelism %d: ran %d of 37 tasks", n, count.Load())
		}
	}
}

func TestNestedRunNoDeadlock(t *testing.T) {
	p := New(2)
	var count atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		count.Add(1)
		if depth == 0 {
			return
		}
		p.Run(
			func() { rec(depth - 1) },
			func() { rec(depth - 1) },
		)
	}
	rec(6) // 2^7 − 1 nodes, far more tasks than tokens
	if got := count.Load(); got != 127 {
		t.Fatalf("ran %d nodes, want 127", got)
	}
}

func TestResizeFloorsAtOne(t *testing.T) {
	p := New(4)
	p.Resize(-3)
	if n := p.Parallelism(); n != 1 {
		t.Fatalf("Parallelism() = %d after Resize(-3), want 1", n)
	}
	ran := false
	p.Run(func() { ran = true })
	if !ran {
		t.Fatal("task did not run at parallelism 1")
	}
}

// TestFaultPoolContainsPanics: a panicking task must not kill the
// process or orphan siblings — every sibling completes, the first panic
// is rethrown on the caller as a *fault.PanicError.
func TestFaultPoolContainsPanics(t *testing.T) {
	p := New(4)
	met := obs.NewMetrics()
	p.SetMetrics(met)

	var ran atomic.Int32
	tasks := make([]func(), 8)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			if i == 3 {
				panic("task 3 exploded")
			}
			ran.Add(1)
		}
	}
	var pe *fault.PanicError
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("panic not rethrown on the caller")
			}
			var ok bool
			if pe, ok = v.(*fault.PanicError); !ok {
				t.Fatalf("rethrown value is %T, want *fault.PanicError", v)
			}
		}()
		p.Run(tasks...)
	}()
	if got := ran.Load(); got != 7 {
		t.Fatalf("%d of 7 healthy siblings ran to completion", got)
	}
	if pe.Site != "workpool" || len(pe.Stack) == 0 {
		t.Fatalf("panic not promoted with site/stack: %+v", pe)
	}
	if n := met.PanicsRecovered.Value(); n != 1 {
		t.Fatalf("panics_recovered = %d, want 1", n)
	}

	// Size-1 pools contain too (inline path).
	seq := New(1)
	caught := false
	func() {
		defer func() { caught = recover() != nil }()
		seq.Run(func() { panic("inline") }, func() { ran.Add(1) })
	}()
	if !caught || ran.Load() != 8 {
		t.Fatalf("inline containment: caught=%v ran=%d", caught, ran.Load())
	}
}
