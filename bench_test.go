// Benchmarks regenerating the paper's evaluation (one benchmark group
// per table/figure) plus a bench of Section V-D's two incremental
// strategies and micro-benchmarks of the hot primitives. The d-tree has
// one configuration, the paper's, so no bench switches part of it off.
//
// Instances are scaled down so `go test -bench=. -benchmem` finishes in
// minutes; cmd/experiments runs the full measured tables.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/mc"
	"repro/internal/pdb"
	"repro/internal/plan"
	"repro/internal/randdnf"
	"repro/internal/sprout"
	"repro/internal/tpch"
	"repro/internal/workpool"
)

// benchDB memoizes generated databases across benchmarks.
var benchDB = struct {
	sync.Mutex
	m map[string]*tpch.DB
}{m: map[string]*tpch.DB{}}

func getDB(sf, probHigh float64) *tpch.DB {
	key := fmt.Sprint(sf, "/", probHigh)
	benchDB.Lock()
	defer benchDB.Unlock()
	db, ok := benchDB.m[key]
	if !ok {
		db = tpch.Generate(tpch.Config{SF: sf, ProbHigh: probHigh, Seed: 42})
		benchDB.m[key] = db
	}
	return db
}

// booleanDNF evaluates a Boolean plan to its answer lineage (nil when
// the answer is certainly false).
func booleanDNF(n plan.Node) formula.DNF {
	answers := plan.Lineage(n)
	if len(answers) == 0 {
		return nil
	}
	return answers[0].Lin
}

func benchDtree(b *testing.B, s *formula.Space, d formula.DNF, eps float64, kind core.ErrorKind) {
	b.Helper()
	if len(d) == 0 {
		b.Skip("empty lineage at bench scale")
	}
	b.ResetTimer()
	// After ResetTimer: it deletes user-reported metrics.
	b.ReportMetric(float64(len(d)), "clauses")
	for i := 0; i < b.N; i++ {
		// MaxWork caps pathological hard-region instances the way the
		// harness's timeout budget does; converged runs are unaffected.
		_, err := core.ApproxCtx(context.Background(), s, d, core.Options{Eps: eps, Kind: kind, MaxWork: 30_000_000})
		if err != nil && err != core.ErrBudget {
			b.Fatal(err)
		}
	}
}

func benchDtreeExact(b *testing.B, s *formula.Space, d formula.DNF) {
	b.Helper()
	if len(d) == 0 {
		b.Skip("empty lineage at bench scale")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactCtx(context.Background(), s, d, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlanned times the planner-routed exact path (a safe plan or an
// IQ scan), planning included, as the figures' SPROUT column does.
func benchPlanned(b *testing.B, s *formula.Space, n plan.Node) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Compile(n).Answers(context.Background(), s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAconf(b *testing.B, s *formula.Space, d formula.DNF, eps float64) {
	b.Helper()
	if len(d) == 0 {
		b.Skip("empty lineage at bench scale")
	}
	// Clause-scaled sample budget, mirroring the harness's timeout
	// semantics (each sample costs one pass over the DNF).
	samples := 2_000_000 / len(d)
	if samples < 500 {
		samples = 500
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.AConfCtx(context.Background(), s, d, mc.AConfOptions{Eps: eps, Delta: 0.01, MaxSamples: samples, Seed: int64(7 + i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Figure 6(a): tractable TPC-H queries, tuple probabilities in (0,1).
// ---------------------------------------------------------------------

func BenchmarkFig6aTractable(b *testing.B) {
	db := getDB(0.001, 1)
	cases := []struct {
		name string
		node plan.Node
	}{
		{"B1", db.B1IR(tpch.MaxDate / 2)},
		{"B6", db.B6IR(300, 1200, 2, 6, 30)},
		{"B16", db.B16IR(5, 25)},
		{"B17", db.B17IR(3, 7)},
	}
	for _, c := range cases {
		dnf := booleanDNF(c.node)
		b.Run(c.name+"/dtree-rel0.01", func(b *testing.B) {
			benchDtree(b, db.Space, dnf, 0.01, core.Relative)
		})
		b.Run(c.name+"/dtree-exact", func(b *testing.B) {
			benchDtreeExact(b, db.Space, dnf)
		})
		b.Run(c.name+"/aconf-rel0.05", func(b *testing.B) {
			benchAconf(b, db.Space, dnf, 0.05)
		})
		b.Run(c.name+"/sprout", func(b *testing.B) {
			benchPlanned(b, db.Space, c.node)
		})
	}
}

// ---------------------------------------------------------------------
// Figure 6(b): same queries, tuple probabilities in (0, 0.01).
// ---------------------------------------------------------------------

func BenchmarkFig6bSmallProbabilities(b *testing.B) {
	db := getDB(0.001, 0.01)
	cases := []struct {
		name string
		dnf  formula.DNF
	}{
		{"B1", booleanDNF(db.B1IR(tpch.MaxDate / 2))},
		{"B16", booleanDNF(db.B16IR(5, 25))},
		{"B17", booleanDNF(db.B17IR(3, 7))},
	}
	for _, c := range cases {
		b.Run(c.name+"/dtree-rel0.01", func(b *testing.B) {
			benchDtree(b, db.Space, c.dnf, 0.01, core.Relative)
		})
		b.Run(c.name+"/dtree-exact", func(b *testing.B) {
			benchDtreeExact(b, db.Space, c.dnf)
		})
	}
}

// ---------------------------------------------------------------------
// Figure 6(c): IQ inequality queries.
// ---------------------------------------------------------------------

func BenchmarkFig6cInequalityQueries(b *testing.B) {
	db := getDB(0.001, 1)
	const nE, nD, nC = 15, 30, 30
	cases := []struct {
		name string
		node plan.Node
	}{
		{"IQB1", db.IQB1IR(nE, nD*3)},
		{"IQB4", db.IQB4IR(nE, nD, nC)},
		{"IQ6", db.IQ6IR(nE, nD, nC)},
	}
	for _, c := range cases {
		dnf := booleanDNF(c.node)
		b.Run(c.name+"/dtree-rel0.01", func(b *testing.B) {
			benchDtree(b, db.Space, dnf, 0.01, core.Relative)
		})
		b.Run(c.name+"/dtree-exact", func(b *testing.B) {
			benchDtreeExact(b, db.Space, dnf)
		})
		b.Run(c.name+"/sprout", func(b *testing.B) {
			benchPlanned(b, db.Space, c.node)
		})
	}
}

// ---------------------------------------------------------------------
// Figure 7: hard TPC-H queries.
// ---------------------------------------------------------------------

func BenchmarkFig7HardQueries(b *testing.B) {
	for _, sf := range []float64{0.0005, 0.001} {
		db := getDB(sf, 1)
		nat := db.CommonNationKey()
		cases := []struct {
			name string
			dnf  formula.DNF
		}{
			{"B2", booleanDNF(db.B2IR(15, 1))},
			{"B9", booleanDNF(db.B9IR(10))},
			{"B20", booleanDNF(db.B20IR(nat, 3, 50))},
			{"B21", booleanDNF(db.B21IR(nat))},
		}
		for _, c := range cases {
			c := c
			b.Run(fmt.Sprintf("%s/sf%g/dtree-rel0.05", c.name, sf), func(b *testing.B) {
				benchDtree(b, db.Space, c.dnf, 0.05, core.Relative)
			})
			b.Run(fmt.Sprintf("%s/sf%g/aconf-rel0.05", c.name, sf), func(b *testing.B) {
				benchAconf(b, db.Space, c.dnf, 0.05)
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 8: random graphs (triangle, path2).
// ---------------------------------------------------------------------

func BenchmarkFig8RandomGraphs(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		for _, p := range []float64{0.3, 0.7} {
			g := graphs.Complete(n, p)
			tri := g.TriangleDNF()
			p2 := g.PathDNF(2)
			b.Run(fmt.Sprintf("triangle/n%d/p%g/dtree", n, p), func(b *testing.B) {
				benchDtree(b, g.Space(), tri, 0.05, core.Relative)
			})
			b.Run(fmt.Sprintf("path2/n%d/p%g/dtree", n, p), func(b *testing.B) {
				benchDtree(b, g.Space(), p2, 0.05, core.Relative)
			})
			b.Run(fmt.Sprintf("triangle/n%d/p%g/aconf", n, p), func(b *testing.B) {
				benchAconf(b, g.Space(), tri, 0.05)
			})
		}
	}
}

// Figure 8 bottom panel: small edge probabilities, absolute error.
func BenchmarkFig8cAbsoluteSmallProb(b *testing.B) {
	for _, n := range []int{6, 10, 15} {
		for _, p := range []float64{0.1, 0.01} {
			g := graphs.Complete(n, p)
			tri := g.TriangleDNF()
			p2 := g.PathDNF(2)
			b.Run(fmt.Sprintf("triangle/n%d/p%g", n, p), func(b *testing.B) {
				benchDtree(b, g.Space(), tri, 0.05, core.Absolute)
			})
			b.Run(fmt.Sprintf("path2/n%d/p%g", n, p), func(b *testing.B) {
				benchDtree(b, g.Space(), p2, 0.05, core.Absolute)
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 9: social networks.
// ---------------------------------------------------------------------

func BenchmarkFig9SocialNetworks(b *testing.B) {
	networks := []struct {
		name string
		g    *graphs.Graph
	}{
		{"karate", graphs.Karate(0.3, 0.95, 42)},
		{"dolphins", graphs.Dolphins(0.5, 0.99, 42)},
	}
	for _, nw := range networks {
		queries := map[string]formula.DNF{
			"t":  nw.g.TriangleDNF(),
			"p2": nw.g.PathDNF(2),
			"s2": nw.g.SeparationDNF(0, nw.g.N-1),
		}
		for _, qn := range []string{"t", "s2", "p2"} {
			d := queries[qn]
			for _, eps := range []float64{0.05, 0.01} {
				b.Run(fmt.Sprintf("%s/%s/rel%g/dtree", nw.name, qn, eps), func(b *testing.B) {
					benchDtree(b, nw.g.Space(), d, eps, core.Relative)
				})
			}
			b.Run(fmt.Sprintf("%s/%s/rel0.05/aconf", nw.name, qn), func(b *testing.B) {
				benchAconf(b, nw.g.Space(), d, 0.05)
			})
		}
	}
}

// ---------------------------------------------------------------------
// Unified engine: parallel batch conf() and subformula memoization.
// ---------------------------------------------------------------------

// confBatchAnswers builds a batch of answers with hierarchical
// (tractable) lineage where consecutive answers share blocks of base
// tuples — the cross-answer repeated-subformula pattern of multi-answer
// queries. Each answer's lineage spans `window` of the `blocks` shared
// blocks.
func confBatchAnswers(nAnswers, blocks, window, perBlock int) (*formula.Space, []pdb.Answer) {
	s := formula.NewSpace()
	blockDNF := make([]formula.DNF, blocks)
	for g := range blockDNF {
		r := s.AddBoolTagged(0.3, 0)
		var d formula.DNF
		for j := 0; j < perBlock; j++ {
			sv := s.AddBoolTagged(0.5, 1)
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
		blockDNF[g] = d
	}
	answers := make([]pdb.Answer, nAnswers)
	for i := range answers {
		var lin formula.DNF
		for w := 0; w < window; w++ {
			lin = append(lin, blockDNF[(i+w)%blocks]...)
		}
		answers[i] = pdb.Answer{Vals: []pdb.Value{pdb.Value(i)}, Lin: lin}
	}
	return s, answers
}

func benchConfBatch(b *testing.B, s *formula.Space, answers []pdb.Answer, size int, cache bool) {
	b.Helper()
	pool := workpool.New(size)
	ev := engine.Approx{Pool: pool}
	if cache {
		// One cache shared across iterations: the steady state of a
		// server answering repeated/overlapping queries.
		ev.Cache = formula.NewFragCache(0)
	}
	b.ResetTimer()
	// After ResetTimer: it deletes user-reported metrics.
	b.ReportMetric(float64(len(answers)), "answers")
	for i := 0; i < b.N; i++ {
		confs, err := pdb.ConfWith(context.Background(), s, answers, ev, pool, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(confs) != len(answers) {
			b.Fatalf("got %d confs", len(confs))
		}
	}
}

// BenchmarkBatchConf measures the conf() operator over a 12-answer
// batch: parallel fan-out vs sequential, with and without the shared
// subformula cache. The parallel gain needs real cores (GOMAXPROCS>1);
// the cache gain shows even single-core.
func BenchmarkBatchConf(b *testing.B) {
	s, answers := confBatchAnswers(12, 15, 4, 40)
	b.Run("sequential", func(b *testing.B) { benchConfBatch(b, s, answers, 1, false) })
	b.Run("parallel", func(b *testing.B) { benchConfBatch(b, s, answers, 8, false) })
	b.Run("sequential-cache", func(b *testing.B) { benchConfBatch(b, s, answers, 1, true) })
	b.Run("parallel-cache", func(b *testing.B) { benchConfBatch(b, s, answers, 8, true) })
}

// BenchmarkBatchConfTPCH is the same comparison on real TPC-H lineage:
// the per-supplier answers of Q15.
func BenchmarkBatchConfTPCH(b *testing.B) {
	db := getDB(0.002, 1)
	answers := plan.Lineage(db.Q15IR(0, tpch.MaxDate/3))
	if len(answers) < 8 {
		b.Skipf("only %d answers at bench scale", len(answers))
	}
	b.Run("sequential", func(b *testing.B) { benchConfBatch(b, db.Space, answers, 1, false) })
	b.Run("parallel", func(b *testing.B) { benchConfBatch(b, db.Space, answers, 8, false) })
	b.Run("sequential-cache", func(b *testing.B) { benchConfBatch(b, db.Space, answers, 1, true) })
	b.Run("parallel-cache", func(b *testing.B) { benchConfBatch(b, db.Space, answers, 8, true) })
}

// BenchmarkCacheTPCH measures the memo cache on repeated evaluation of
// TPC-H lineage (B17, hierarchical) — cache-off vs a cache shared
// across evaluations.
func BenchmarkCacheTPCH(b *testing.B) {
	db := getDB(0.001, 1)
	d := booleanDNF(db.B17IR(3, 7))
	if len(d) == 0 {
		b.Skip("empty lineage at bench scale")
	}
	b.Run("cache-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ExactCtx(context.Background(), db.Space, d, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-on", func(b *testing.B) {
		cache := formula.NewFragCache(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.ExactCtx(context.Background(), db.Space, d, core.Options{Frags: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the primitives.
// ---------------------------------------------------------------------

func BenchmarkLeafBounds(b *testing.B) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 300, Clauses: 1000, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.9,
	}, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LeafBounds(s, d, true)
	}
}

func BenchmarkKarpLubySample(b *testing.B) {
	s, d := randdnf.Generate(randdnf.Config{
		Vars: 300, Clauses: 1000, MaxWidth: 3, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.9,
	}, 3)
	kl := mc.NewKarpLuby(s, d, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kl.Sample()
	}
}

func BenchmarkCompileHierarchical(b *testing.B) {
	s := formula.NewSpace()
	var d formula.DNF
	for a := 0; a < 100; a++ {
		r := s.AddBoolTagged(0.3, 0)
		for j := 0; j < 5; j++ {
			sv := s.AddBoolTagged(0.5, 1)
			d = append(d, formula.MustClause(formula.Pos(r), formula.Pos(sv)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactCtx(context.Background(), s, d, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIQScanChain(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	level := func(n int) []sprout.WeightedValue {
		out := make([]sprout.WeightedValue, n)
		for i := range out {
			out[i] = sprout.WeightedValue{Val: int64(rng.Intn(100000)), Prob: rng.Float64()}
		}
		return out
	}
	a, c, e := level(5000), level(5000), level(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sprout.ChainConfidence(a, c, e)
	}
}

func BenchmarkSubsumptionRemoval(b *testing.B) {
	_, d := randdnf.Generate(randdnf.Config{
		Vars: 100, Clauses: 2000, MaxWidth: 4, MaxDomain: 2, MinProb: 0.05, MaxProb: 0.9,
	}, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.RemoveSubsumed()
	}
}
