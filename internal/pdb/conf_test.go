package pdb

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/workpool"
)

func TestConfOperator(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	answers := GroupProject(EquiJoin(r, u, 1, 0), []int{3})
	confs, err := ConfWith(context.Background(), s, answers, engine.Approx{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(confs) != len(answers) {
		t.Fatalf("got %d confidences for %d answers", len(confs), len(answers))
	}
	for i, c := range confs {
		want := formula.BruteForceProbability(s, answers[i].Lin)
		if math.Abs(c.P-want) > 1e-9 {
			t.Fatalf("answer %v: %v want %v", c.Vals, c.P, want)
		}
	}
}

func TestConfOperatorApprox(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	answers := GroupProject(EquiJoin(r, u, 1, 0), []int{3})
	confs, err := ConfWith(context.Background(), s, answers,
		engine.Approx{Eps: 0.01, Kind: engine.Absolute}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range confs {
		want := formula.BruteForceProbability(s, answers[i].Lin)
		if math.Abs(c.P-want) > 0.01+1e-9 {
			t.Fatalf("answer %v: %v want %v±0.01", c.Vals, c.P, want)
		}
	}
}

// evalFunc adapts a function to engine.Evaluator.
type evalFunc func(ctx context.Context, s *formula.Space, d formula.DNF) (engine.Result, error)

func (f evalFunc) Evaluate(ctx context.Context, s *formula.Space, d formula.DNF) (engine.Result, error) {
	return f(ctx, s, d)
}

// TestConfPartialErrors checks that one answer's failure is recorded on
// that answer while the rest of the batch still completes, and that the
// aggregated error surfaces the failure.
func TestConfPartialErrors(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	answers := GroupProject(EquiJoin(r, u, 1, 0), []int{3})
	if len(answers) < 2 {
		t.Fatalf("need ≥ 2 answers, got %d", len(answers))
	}
	boom := errors.New("boom")
	var calls atomic.Int64
	failIdx := 1
	ev := evalFunc(func(ctx context.Context, sp *formula.Space, d formula.DNF) (engine.Result, error) {
		calls.Add(1)
		if d.Equal(answers[failIdx].Lin) {
			return engine.Result{}, boom
		}
		return engine.Approx{}.Evaluate(ctx, sp, d)
	})
	confs, err := ConfWith(context.Background(), s, answers, ev, nil, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("aggregated err = %v, want wrapped boom", err)
	}
	if len(confs) != len(answers) {
		t.Fatalf("got %d results for %d answers", len(confs), len(answers))
	}
	if calls.Load() != int64(len(answers)) {
		t.Fatalf("evaluator ran %d times, want %d (no abort on first error)",
			calls.Load(), len(answers))
	}
	for i, c := range confs {
		if i == failIdx {
			if !errors.Is(c.Err, boom) {
				t.Fatalf("answer %d: Err = %v, want boom", i, c.Err)
			}
			continue
		}
		if c.Err != nil {
			t.Fatalf("answer %d: unexpected Err %v", i, c.Err)
		}
		want := formula.BruteForceProbability(s, answers[i].Lin)
		if math.Abs(c.P-want) > 1e-9 {
			t.Fatalf("answer %d: P = %v, want %v", i, c.P, want)
		}
	}
}

// TestConfCancelled checks that a cancelled context marks every answer
// and surfaces the context error.
func TestConfCancelled(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	answers := GroupProject(EquiJoin(r, u, 1, 0), []int{3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	confs, err := ConfWith(ctx, s, answers, engine.Approx{}, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, c := range confs {
		if !errors.Is(c.Err, context.Canceled) {
			t.Fatalf("answer %d: Err = %v, want context.Canceled", i, c.Err)
		}
	}
}

// TestConfConcurrentBatches exercises concurrent conf() batches sharing
// one fragment cache over one space — the production pattern for
// multi-query traffic — under the race detector.
func TestConfConcurrentBatches(t *testing.T) {
	pool := workpool.New(4)
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	answers := GroupProject(EquiJoin(r, u, 1, 0), []int{3})
	want := make([]float64, len(answers))
	for i := range answers {
		want[i] = formula.BruteForceProbability(s, answers[i].Lin)
	}
	cache := formula.NewFragCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				confs, err := ConfWith(context.Background(), s, answers, engine.Approx{Frags: cache}, pool, nil)
				if err != nil {
					t.Errorf("ConfWith: %v", err)
					return
				}
				for i, c := range confs {
					if math.Abs(c.P-want[i]) > 1e-9 {
						t.Errorf("answer %d: P = %v, want %v", i, c.P, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvalMetricsPointerEvaluator pins that conf() finds the registry
// of an evaluator handed over by pointer (Evaluate has value receivers,
// so both forms are evaluators) and tolerates a nil one.
func TestEvalMetricsPointerEvaluator(t *testing.T) {
	m := obs.NewMetrics()
	for _, ev := range []engine.Evaluator{
		engine.Approx{Metrics: m}, &engine.Approx{Metrics: m},
	} {
		if got := evalMetrics(ev); got != m {
			t.Fatalf("%T: registry %p, want %p", ev, got, m)
		}
	}
	for _, ev := range []engine.Evaluator{(*engine.Approx)(nil), engine.MonteCarlo{}, nil} {
		if got := evalMetrics(ev); got != nil {
			t.Fatalf("%T: registry %p, want nil", ev, got)
		}
	}
}
