package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/formula"
	"repro/internal/randdnf"
)

// benchPrepDNF generates the leaf-preparation benchmark workload: one
// Space and a multi-clause DNF wide enough to take the leaf-bounds
// (non-exact) path of prepare.
func benchPrepDNF(clauses int) (*formula.Space, formula.DNF) {
	cfg := randdnf.Config{
		Vars: 6 * clauses / 5, Clauses: clauses, MaxWidth: 3, ForceWidth: true,
		MaxDomain: 2, MinProb: 0.01, MaxProb: 0.15,
	}
	return randdnf.Generate(cfg, int64(clauses))
}

// BenchmarkPrepare measures one full leaf preparation (normalize,
// reduce, heuristic bounds) per op, cold (no fragment cache) and warm
// (hitting a pre-warmed fragment cache). Allocation counts are the
// point — run with -benchmem.
func BenchmarkPrepare(b *testing.B) {
	for _, clauses := range []int{40, 160} {
		s, d := benchPrepDNF(clauses)
		variants := []struct {
			name string
			opt  Options
		}{
			{"cold", Options{Eps: 1e-6}},
			{"warm", Options{Eps: 1e-6, Frags: formula.NewFragCache(0)}},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("clauses=%d/%s", clauses, v.name), func(b *testing.B) {
				st := newState(context.Background(), s, v.opt)
				st.prepare(d) // warm the fragment cache (no-op without one)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := st.prepare(d)
					if f.Lo > f.Hi {
						b.Fatal("inverted bounds")
					}
				}
			})
		}
	}
}

// BenchmarkLeafBounds isolates the leaf bounds — two passes on
// positive leaves, Figure 3's quadratic bucket loop on others — on
// pooled scratch vs the per-call-allocating
// shape it replaced (fresh scratch each call approximates it).
func BenchmarkLeafBounds(b *testing.B) {
	for _, clauses := range []int{40, 160, 640} {
		s, d := benchPrepDNF(clauses)
		d = d.Normalize().RemoveSubsumed()
		b.Run(fmt.Sprintf("clauses=%d/pooled", clauses), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				leafBounds(s, d)
			}
		})
		b.Run(fmt.Sprintf("clauses=%d/fresh", clauses), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				leafBoundsScratch(s, d, new(prepScratch))
			}
		})
	}
}

// BenchmarkComponents measures the ⊗ partition on fragments of eight
// variable-disjoint components: a fresh scratch per call against a
// reused one, which allocates only the components' clause block once
// grown.
func BenchmarkComponents(b *testing.B) {
	for _, clauses := range []int{40, 160, 640} {
		// Several variable-disjoint blocks, interleaved: the partition
		// actually has work to do.
		var d formula.DNF
		const blocks = 8
		for j := 0; clauses > len(d); j++ {
			for blk := 0; blk < blocks && clauses > len(d); blk++ {
				// Chained variables keep each block one component.
				base := formula.Var(1000 * blk)
				c, ok := formula.NewClause(
					formula.Atom{Var: base + formula.Var(j), Val: formula.True},
					formula.Atom{Var: base + formula.Var(j+1), Val: formula.True},
				)
				if ok {
					d = append(d, c)
				}
			}
		}
		d = d.Normalize()
		top := maxVar(d)
		b.Run(fmt.Sprintf("clauses=%d/fresh", len(d)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(new(prepScratch).components(d, top)) != blocks {
					b.Fatal("unexpected partition")
				}
			}
		})
		b.Run(fmt.Sprintf("clauses=%d/scratch", len(d)), func(b *testing.B) {
			sc := new(prepScratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(sc.components(d, top)) != blocks {
					b.Fatal("unexpected partition")
				}
			}
		})
	}
}
