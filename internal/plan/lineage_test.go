package plan

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// TestLineageSinkMatchesStringKeyedGrouping: the lineage route's sink —
// groups found through sprout.KeyIndex, ordered by pdb.CompareValueKeys,
// their clauses staged flat and regrouped — returns what the eager
// reference's string-keyed pdb.GroupProject / BooleanAnswer return:
// the same groups in the same order and, clause for clause, the same
// DNFs. Group values are drawn where encoded-key order is not numeric
// order (negative, 2⁸ and above), and repeat so that groups interleave
// in arrival order and hold duplicate clauses.
func TestLineageSinkMatchesStringKeyedGrouping(t *testing.T) {
	domain := []pdb.Value{0, 1, 2, 255, 256, 257, -1, -256, 1 << 16, 1 << 40, -1 << 62}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := formula.NewSpace()
		rel := func(name string, tag int32) *pdb.Relation {
			rows := make([][]pdb.Value, 1+rng.Intn(40))
			probs := make([]float64, len(rows))
			for i := range rows {
				rows[i] = []pdb.Value{domain[rng.Intn(len(domain))], domain[rng.Intn(4)], domain[rng.Intn(len(domain))]}
				probs[i] = 0.1 + 0.8*rng.Float64()
			}
			return pdb.NewTupleIndependent(s, name, []string{"a", "b", "c"}, rows, probs, tag)
		}
		r, u := rel("R", 0), rel("U", 1)
		// R ⋈ U on b, then R again on U.b: the self-join makes different
		// tuple combinations merge to one clause.
		join := &EquiJoin{
			Left:    &EquiJoin{Left: scan(r), Right: scan(u), LeftCol: 1, RightCol: 1},
			Right:   scan(r),
			LeftCol: 4, RightCol: 1,
		}
		for _, project := range [][]int{nil, {0}, {5, 0}} { // (), (R.a), (U.c, R.a)
			root := &GroupLineage{Input: join, Cols: project}
			got, want := Lineage(root), evalIR(root)
			if len(got) != len(want) {
				t.Fatalf("seed %d, project %v: %d answers, eager reference %d", seed, project, len(got), len(want))
			}
			for i := range want {
				if pdb.CompareValueKeys(got[i].Vals, want[i].Vals) != 0 || (got[i].Vals == nil) != (want[i].Vals == nil) {
					t.Fatalf("seed %d, project %v: answer %d is %v, eager reference %v", seed, project, i, got[i].Vals, want[i].Vals)
				}
				if len(got[i].Lin) != len(want[i].Lin) {
					t.Fatalf("seed %d, project %v: answer %v has %d clauses, eager reference %d", seed, project, got[i].Vals, len(got[i].Lin), len(want[i].Lin))
				}
				for j := range want[i].Lin {
					if !got[i].Lin[j].Equal(want[i].Lin[j]) {
						t.Fatalf("seed %d, project %v: answer %v clause %d is %v, eager reference %v", seed, project, got[i].Vals, j, got[i].Lin[j], want[i].Lin[j])
					}
				}
			}
			// Answers share one clause array: appending to one must not
			// reach into the next.
			for i := range got {
				got[i].Lin = append(got[i].Lin, nil)
			}
			for i := range want {
				for j := range want[i].Lin {
					if !got[i].Lin[j].Equal(want[i].Lin[j]) {
						t.Fatalf("seed %d, project %v: appending to another answer's DNF overwrote answer %v clause %d", seed, project, got[i].Vals, j)
					}
				}
			}
		}
	}
}

// TestLineageHonoursCancel is TestStructuralRoutesHonourCancel for the
// lineage route: a client that goes away while a forced-lineage join is
// materializing stops it within one poll stride — on the driver side,
// where the sink polls, and on the build side, where the join does —
// and the route reports the cancellation instead of a success.
func TestLineageHonoursCancel(t *testing.T) {
	const n = 300_000
	s := formula.NewSpace()
	rows := make([][]pdb.Value, n)
	probs := make([]float64, n)
	for i := range rows {
		rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i)}
		probs[i] = 0.5
	}
	big := pdb.NewTupleIndependent(s, "Big", []string{"g", "v"}, rows, probs, 0)
	small := pdb.NewTupleIndependent(s, "Small", []string{"g"}, [][]pdb.Value{{0}, {1}, {2}}, []float64{0.5, 0.5, 0.5}, 1)

	for _, k := range []int{1, 100, cancelStride + 7, 200_000} {
		for _, side := range []string{"driver", "build", "theta build"} {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			filtered := sel(scan(big), func([]pdb.Value) bool {
				if calls++; calls == k {
					cancel()
				}
				return true
			})
			var join Node
			switch side {
			case "driver": // every Big tuple reaches the sink
				join = &EquiJoin{Left: filtered, Right: scan(small), LeftCol: 0, RightCol: 0}
			case "build":
				join = &EquiJoin{Left: scan(small), Right: filtered, LeftCol: 0, RightCol: 0}
			default:
				join = &ThetaJoin{Left: scan(small), Right: filtered, Less: &Less{LeftCol: 0, RightCol: 1}}
			}
			p := CompileWith(&GroupLineage{Input: join, Cols: []int{0}}, Options{DisableSafe: true, DisableIQ: true})
			if p.Route != RouteLineage {
				t.Fatalf("routed %s", p.Explain())
			}
			got, err := p.Answers(ctx, s, nil)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s side, cancel at call %d: err = %v (%d answers), want context.Canceled", side, k, err, len(got))
			}
			if got != nil {
				t.Errorf("%s side, cancel at call %d: %d answers alongside the cancellation", side, k, len(got))
			}
			if calls > k+cancelStride {
				t.Errorf("%s side: %d predicate calls after a cancel at call %d, want at most %d more", side, calls, k, cancelStride)
			}
			cancel()
		}
	}
}

// TestLineageSinkAllocsPerGroupNotPerTuple is
// TestSafeRouteAllocsPerGroupNotPerTuple for the lineage route's sink:
// materializing a single-scan group query (6 groups) allocates the same
// small number of objects over 10 000 tuples as over 40 000 — the key
// index, the answers and their one clause array, not a key, a group
// lookup or a slice growth per tuple.
func TestLineageSinkAllocsPerGroupNotPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	measure := func(n int) float64 {
		s := formula.NewSpace()
		rows := make([][]pdb.Value, n)
		probs := make([]float64, n)
		for i := range rows {
			rows[i] = []pdb.Value{pdb.Value(i % 3), pdb.Value(i % 2), pdb.Value(i % 100)}
			probs[i] = 0.001
		}
		rel := pdb.NewTupleIndependent(s, "lineitem", []string{"flag", "status", "date"}, rows, probs, 0)
		root := &GroupLineage{
			Input: sel(scan(rel), func(v []pdb.Value) bool { return v[2] <= 90 }),
			Cols:  []int{0, 1},
		}
		in := formula.NewInterner()
		ctx := context.Background()
		return testing.AllocsPerRun(10, func() {
			got, st, err := lineageWithStats(ctx, root, in)
			if err != nil || len(got) != 6 || st.tuples != int64(n/100*91) {
				t.Fatalf("%d answers over %d tuples, err %v", len(got), st.tuples, err)
			}
		})
	}
	small, large := measure(10_000), measure(40_000)
	t.Logf("allocations per lineage materialization: %v over 10 000 tuples, %v over 40 000", small, large)
	if small != large || small > 32 {
		t.Fatalf("allocations per lineage materialization: %v over 10 000 tuples, %v over 40 000; want equal and at most 32", small, large)
	}
}
