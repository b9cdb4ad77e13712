package exp

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/formula"
)

// Params configures an experiment run. Zero values get Small() defaults.
type Params struct {
	SF   float64 // TPC-H scale factor
	Seed int64

	// Budgets that stand in for the paper's wall-clock timeout: a run
	// that exhausts its budget is reported as "TO". Both are measured in
	// clause-processing operations so the cutoff is machine-independent
	// and scales with lineage size: DtreeMaxNodes caps d-tree nodes and
	// cumulative clauses processed; AconfMaxSample caps Karp-Luby
	// clause evaluations (samples × clauses).
	DtreeMaxNodes  int
	AconfMaxSample int

	Delta float64 // aconf δ (the paper fixes 0.0001)
}

// Small returns defaults sized so the full suite finishes in a few
// minutes on a laptop.
func Small() Params {
	return Params{
		SF:             0.002,
		Seed:           42,
		DtreeMaxNodes:  3_000_000,
		AconfMaxSample: 3_000_000,
		Delta:          0.0001,
	}
}

func (p Params) withDefaults() Params {
	d := Small()
	if p.SF == 0 {
		p.SF = d.SF
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.DtreeMaxNodes == 0 {
		p.DtreeMaxNodes = d.DtreeMaxNodes
	}
	if p.AconfMaxSample == 0 {
		p.AconfMaxSample = d.AconfMaxSample
	}
	if p.Delta == 0 {
		p.Delta = d.Delta
	}
	return p
}

// runResult is one algorithm invocation's measurement.
type runResult struct {
	est      float64
	millis   float64
	ok       bool // converged within budget
	detail   int  // nodes or samples
	estimate string
}

func (r runResult) timeCell() string {
	if !r.ok {
		return "TO"
	}
	return ms(r.millis)
}

// runEval measures one engine evaluation — every experiment algorithm
// goes through the unified Evaluator API.
func runEval(ev engine.Evaluator, s *formula.Space, d formula.DNF) runResult {
	start := time.Now()
	res, err := ev.Evaluate(context.Background(), s, d)
	el := time.Since(start)
	detail := res.Nodes
	if res.Samples > 0 {
		detail = res.Samples
	}
	return runResult{
		est: res.Estimate, millis: float64(el.Microseconds()) / 1000,
		ok: err == nil && res.Converged, detail: detail,
		estimate: prob(res.Estimate),
	}
}

// dtree is the experiments' d-tree evaluator: the node budget plus the
// matching clause-work cap (8 clause operations per node, the seed's
// ratio), with no cache shared across answers — the paper's per-answer
// measurements.
func dtree(eps float64, kind engine.ErrorKind, maxNodes int) engine.Approx {
	return engine.Approx{Eps: eps, Kind: kind, MaxNodes: maxNodes, MaxWork: 8 * maxNodes}
}

// runDtree measures the ε-approximation on one DNF.
func runDtree(s *formula.Space, d formula.DNF, eps float64, kind engine.ErrorKind, maxNodes int) runResult {
	return runEval(dtree(eps, kind, maxNodes), s, d)
}

// runAconf measures the Karp-Luby/DKLR baseline.
func runAconf(s *formula.Space, d formula.DNF, eps, delta float64, maxSamples int, seed int64) runResult {
	// The budget is clause evaluations; each Karp-Luby sample costs one
	// pass over the DNF.
	samples := maxSamples / max(1, len(d))
	if samples < 200 {
		samples = 200
	}
	return runEval(engine.MonteCarlo{
		Eps: eps, Delta: delta, Budget: engine.Budget{MaxSamples: samples}, Seed: seed,
	}, s, d)
}

// runMeasured times an arbitrary exact computation (SPROUT plans/scans).
func runMeasured(f func() float64) runResult {
	start := time.Now()
	p := f()
	el := time.Since(start)
	return runResult{
		est: p, millis: float64(el.Microseconds()) / 1000,
		ok: true, estimate: prob(p),
	}
}

// sumRuns aggregates per-answer runs into a per-query measurement (the
// paper reports one time per query; multi-answer queries sum their
// answers' confidence-computation times).
func sumRuns(rs []runResult) runResult {
	out := runResult{ok: true}
	for _, r := range rs {
		out.millis += r.millis
		out.detail += r.detail
		out.ok = out.ok && r.ok
	}
	if n := len(rs); n == 1 {
		out.est = rs[0].est
		out.estimate = rs[0].estimate
	} else {
		out.estimate = "-"
	}
	return out
}
