package exp

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/plan"
)

// Params configures an experiment run. Small and Smoke return complete
// sets; a zero field is taken as given.
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

	// The figures' sweeps: Fig. 7's scale factors, the clique sizes of
	// Fig. 8 and of its small-probability panel (8c), and Fig. 9's
	// relative errors.
	SFs           []float64
	Cliques       []int
	SmallPCliques []int
	Errors        []float64
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
		SFs:            []float64{0.0005, 0.001, 0.002, 0.005},
		Cliques:        []int{6, 10, 15, 20},
		SmallPCliques:  []int{6, 10, 15},
		Errors:         []float64{0.05, 0.01, 0.005, 0.001},
	}
}

// Smoke returns parameters small enough for a smoke run of every
// figure in a few seconds: the package's tests and the root
// BenchmarkFigures run at this scale. At SF 0.0015 and seed 42 every
// TPC-H row has lineage; B2 has none at SF 0.0005, 0.001, 0.0012 or
// 0.002, and B17 none at 0.0005.
func Smoke() Params {
	return Params{
		SF:             0.0015,
		Seed:           42,
		DtreeMaxNodes:  400_000,
		AconfMaxSample: 150_000,
		Delta:          0.01,
		SFs:            []float64{0.0015},
		Cliques:        []int{6, 8},
		SmallPCliques:  []int{6},
		Errors:         []float64{0.05},
	}
}

// Row is one instance of a Section VII figure: a query's lineage and
// the algorithms the figure times on it.
type Row struct {
	Fig    string   // figure id: "fig6a" … "fig9", "stats"
	Labels []string // the cells that name the row in its table
	Space  *formula.Space
	DNFs   []formula.DNF // one lineage per answer; none when no answer is possible
	Node   plan.Node     // the TPC-H query, which a SPROUT column plans; nil on graphs
	Cols   []Column      // the algorithm columns, in table order
}

// Column is one algorithm of a figure.
type Column struct {
	Name string // its header cell
	// Eval evaluates each answer's lineage. Nil is the SPROUT column:
	// Node through the planner's exact routes.
	Eval engine.Evaluator
}

// Cell is one column's measurement on one row, summed over the row's
// answers (the paper reports one time per query).
type Cell struct {
	P         float64 // the answers' estimates summed
	Millis    float64
	Converged bool // every evaluation met its guarantee within budget
	Work      int  // d-tree nodes or Monte Carlo samples
}

// Clauses is the row's lineage size over all answers.
func (r Row) Clauses() int {
	n := 0
	for _, d := range r.DNFs {
		n += len(d)
	}
	return n
}

// Run measures column j on the row: its evaluator on every answer with
// lineage, or, for the SPROUT column, the planner-routed query.
func (r Row) Run(j int) Cell {
	ev := r.Cols[j].Eval
	if ev == nil {
		start := time.Now()
		p := plannerExact(r.Space, r.Labels[0], r.Node)
		return Cell{P: p, Millis: millisSince(start), Converged: true}
	}
	c := Cell{Converged: true}
	for i, d := range r.DNFs {
		if len(d) == 0 {
			continue
		}
		start := time.Now()
		res, err := r.answerEval(j, i).Evaluate(context.Background(), r.Space, d)
		c.Millis += millisSince(start)
		c.P += res.Estimate
		c.Work += res.Nodes + res.Samples
		c.Converged = c.Converged && err == nil && res.Converged
	}
	return c
}

// answerEval is column j's evaluator on answer i: aconf draws each
// answer's samples from its own seed.
func (r Row) answerEval(j, i int) engine.Evaluator {
	ev := r.Cols[j].Eval
	if a, ok := ev.(aconf); ok {
		a.seed += int64(i)
		ev = a
	}
	return ev
}

func millisSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

func (c Cell) timeCell() string {
	if !c.Converged {
		return "TO"
	}
	return ms(c.Millis)
}

// estimate renders P for a row with one answer; a query with several
// answers has no one estimate.
func (c Cell) estimate(r Row) string {
	if len(r.DNFs) != 1 {
		return "-"
	}
	return prob(c.P)
}

// dtree is the experiments' d-tree evaluator: the node budget plus the
// matching clause-work cap (8 clause operations per node, the seed's
// ratio), with no cache shared across answers — the paper's per-answer
// measurements.
func (p Params) dtree(eps float64, kind engine.ErrorKind) engine.Approx {
	return engine.Approx{Eps: eps, Kind: kind, MaxNodes: p.DtreeMaxNodes, MaxWork: 8 * p.DtreeMaxNodes}
}

// aconf is the Karp-Luby/DKLR baseline. Its budget counts clause
// evaluations: a sample costs one pass over the DNF, so an answer of c
// clauses gets maxWork/c samples, at least 200.
type aconf struct {
	eps, delta float64
	maxWork    int
	seed       int64
}

func (p Params) aconf(eps float64, seed int64) aconf {
	return aconf{eps: eps, delta: p.Delta, maxWork: p.AconfMaxSample, seed: seed}
}

func (a aconf) Evaluate(ctx context.Context, s *formula.Space, d formula.DNF) (engine.Result, error) {
	return engine.MonteCarlo{
		Eps: a.eps, Delta: a.delta, Seed: a.seed,
		Budget: engine.Budget{MaxSamples: max(200, a.maxWork/max(1, len(d)))},
	}.Evaluate(ctx, s, d)
}
