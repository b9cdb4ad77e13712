package rank

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/obs"
)

// gridAnswers builds n answers of m independent clauses each — lineage
// that takes real refinement work, so the scheduler runs grants.
func gridAnswers(s *formula.Space, n, m int) []formula.DNF {
	out := make([]formula.DNF, n)
	for i := range out {
		d := make(formula.DNF, m)
		for j := range d {
			p := 0.1 + 0.8*float64((i*m+j)%7)/7
			d[j] = formula.MustClause(formula.Pos(s.AddBool(p)))
		}
		out[i] = d
	}
	return out
}

// TestFaultRankGrantContainsPanic: a panic mid-Step (injected at the
// leaf.prepare site inside refinement) must fail the run with a
// *fault.PanicError through the ordinary error return — partial results
// intact, no unwinding through the scheduler — and count exactly one
// recovery.
func TestFaultRankGrantContainsPanic(t *testing.T) {
	s := formula.NewSpace()
	met := obs.NewMetrics()
	inj := fault.NewInjector(5)
	inj.Configure(fault.SiteLeafPrepare, fault.SiteConfig{Panic: 0.5})
	_, err := TopK(context.Background(), s, gridAnswers(s, 6, 6), 2, Options{
		Metrics: met,
		Inject:  inj,
	}, nil)
	if err == nil {
		t.Fatalf("seed 5 injects panics at leaf.prepare yet the run succeeded (stats %+v)",
			inj.Stats()[fault.SiteLeafPrepare])
	}
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *fault.PanicError", err, err)
	}
	if met.PanicsRecovered.Value() < 1 {
		t.Fatal("no panic recovery counted")
	}
}

// TestFaultRankStepPanicContained: a panic inside Refiner.Step itself
// (eval.step armed to always panic) unwinds to the scheduler's grant,
// which fails that answer's refiner instead of the scheduler: TopK
// returns a *fault.PanicError contained at rank.grant and counts one
// recovery.
func TestFaultRankStepPanicContained(t *testing.T) {
	g := graphs.Complete(6, 0.3)
	dnfs := make([]formula.DNF, 4)
	for v := range dnfs {
		dnfs[v] = g.NodeTriangleDNF(v)
	}
	met := obs.NewMetrics()
	inj := fault.NewInjector(1)
	inj.Configure(fault.SiteEvalStep, fault.SiteConfig{Panic: 1})
	_, err := TopK(context.Background(), g.Space(), dnfs, 2, Options{
		Metrics: met,
		Inject:  inj,
	}, nil)
	var pe *fault.PanicError
	if !errors.As(err, &pe) || pe.Site != "rank.grant" {
		t.Fatalf("error %v (%T), want a *fault.PanicError at rank.grant", err, err)
	}
	if got := met.PanicsRecovered.Value(); got != 1 {
		t.Fatalf("%d panic recoveries counted, want 1", got)
	}
}
