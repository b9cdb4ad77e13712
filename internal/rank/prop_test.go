package rank

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/formula"
	"repro/internal/randdnf"
)

// Property tests: the schedulers must agree with the ground truth
// obtained by evaluating every answer exactly (engine.Approx at Eps 0) and
// sorting, over 300 random lineage sets — 150 tuple-independent
// (Boolean variables) and 150 BID-style (multi-valued variables).
// Near-ties are compared with a tolerance: the scheduler computes
// probabilities along a different (equally exact) floating-point path
// than exact evaluation, so answers closer than 1e-9 may legitimately
// swap.

const propTol = 1e-9

// randomAnswerSet generates a shared space and nAnswers overlapping
// lineage DNFs over it by splitting one random DNF — answers share
// variables, exactly like the answers of one query share base tuples.
func randomAnswerSet(seed int64, bid bool, nAnswers, clausesPer int) (*formula.Space, []formula.DNF) {
	maxDomain := 2
	if bid {
		maxDomain = 4
	}
	// Width-3 low-probability clauses: enough clauses per answer to
	// clear the inclusion-exclusion shortcut (6), so the schedulers do
	// real refinement instead of deciding everything at preparation.
	s, d := randdnf.Generate(randdnf.Config{
		Vars:       18,
		Clauses:    nAnswers * clausesPer,
		MaxWidth:   3,
		ForceWidth: true,
		MaxDomain:  maxDomain,
		MinProb:    0.02,
		MaxProb:    0.3,
	}, seed)
	dnfs := make([]formula.DNF, nAnswers)
	for i := 0; i < nAnswers; i++ {
		part := d[i*clausesPer%len(d):]
		if len(part) > clausesPer {
			part = part[:clausesPer]
		}
		dnfs[i] = formula.DNF(part).Normalize()
	}
	return s, dnfs
}

// exactProbs is the ground truth: every answer evaluated with the
// exhaustive d-tree evaluator.
func exactProbs(t *testing.T, s *formula.Space, dnfs []formula.DNF) []float64 {
	t.Helper()
	ps := make([]float64, len(dnfs))
	for i, d := range dnfs {
		res, err := engine.Approx{}.Evaluate(context.Background(), s, d)
		if err != nil {
			t.Fatalf("ground truth answer %d: %v", i, err)
		}
		ps[i] = res.Estimate
	}
	return ps
}

// groundRanking sorts answer indices by probability descending, index
// ascending — the deterministic tie order the schedulers promise.
func groundRanking(ps []float64) []int {
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ps[idx[a]] != ps[idx[b]] {
			return ps[idx[a]] > ps[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

func TestRankTopKMatchesExactProperty(t *testing.T) {
	for trial := 0; trial < 150; trial++ {
		for _, bid := range []bool{false, true} {
			seed := int64(1000*trial + 7)
			if bid {
				seed += 500_000
			}
			s, dnfs := randomAnswerSet(seed, bid, 10, 9)
			ps := exactProbs(t, s, dnfs)
			k := 1 + trial%5 // k in 1..5
			res, err := TopK(context.Background(), s, dnfs, k, Options{}, nil)
			if err != nil {
				t.Fatalf("trial %d bid=%v: %v", trial, bid, err)
			}
			checkTopKSelection(t, fmt.Sprintf("trial %d bid=%v k=%d", trial, bid, k), ps, res, k)
		}
	}
}

// checkTopKSelection verifies the selected set against ground truth:
// every selected answer's exact probability must reach the k-th
// largest probability (within tolerance), and every unselected
// answer's must not exceed it.
func checkTopKSelection(t *testing.T, label string, ps []float64, res Result, k int) {
	t.Helper()
	gt := groundRanking(ps)
	if k > len(gt) {
		k = len(gt)
	}
	if len(res.Ranking) != k {
		t.Fatalf("%s: selected %d answers, want %d", label, len(res.Ranking), k)
	}
	cut := ps[gt[k-1]]
	selected := make(map[int]bool, k)
	for _, i := range res.Ranking {
		selected[i] = true
		if ps[i] < cut-propTol {
			t.Fatalf("%s: selected answer %d with P=%v below the cut %v\nexact=%v\nitems=%+v",
				label, i, ps[i], cut, ps, res.Items)
		}
	}
	for i, p := range ps {
		if !selected[i] && p > cut+propTol {
			t.Fatalf("%s: missed answer %d with P=%v above the cut %v\nexact=%v\nitems=%+v",
				label, i, p, cut, ps, res.Items)
		}
	}
	// Reported bounds must contain the exact probability.
	for _, it := range res.Items {
		if it.Lo > ps[it.Index]+propTol || it.Hi < ps[it.Index]-propTol {
			t.Fatalf("%s: item %d bounds [%v,%v] exclude exact %v",
				label, it.Index, it.Lo, it.Hi, ps[it.Index])
		}
	}
}

func TestRankThresholdMatchesExactProperty(t *testing.T) {
	for trial := 0; trial < 150; trial++ {
		for _, bid := range []bool{false, true} {
			seed := int64(1000*trial + 13)
			if bid {
				seed += 900_000
			}
			s, dnfs := randomAnswerSet(seed, bid, 10, 9)
			ps := exactProbs(t, s, dnfs)
			// τ halfway between two adjacent ground-truth probabilities:
			// a cut with a real gap, plus the degenerate extremes.
			gt := groundRanking(ps)
			tau := (ps[gt[len(gt)/2]] + ps[gt[len(gt)/2-1]]) / 2
			switch trial % 5 {
			case 3:
				tau = 0
			case 4:
				tau = 1
			}
			res, err := Threshold(context.Background(), s, dnfs, tau, Options{}, nil)
			if err != nil {
				t.Fatalf("trial %d bid=%v: %v", trial, bid, err)
			}
			selected := make(map[int]bool)
			for _, i := range res.Ranking {
				selected[i] = true
				if ps[i] < tau-propTol {
					t.Fatalf("trial %d bid=%v τ=%v: selected answer %d with P=%v", trial, bid, tau, i, ps[i])
				}
			}
			for i, p := range ps {
				if !selected[i] && p >= tau+propTol {
					t.Fatalf("trial %d bid=%v τ=%v: missed answer %d with P=%v", trial, bid, tau, i, p)
				}
			}
		}
	}
}

// Determinism property: rankings are byte-for-byte reproducible. The
// heap-based widest-leaf selection (core) and widest-answer pick plus
// the event-driven decide pass must keep the documented lowest-index
// tie-break, so repeated runs — and the full-rescan oracle scheduler —
// produce bitwise-identical results even when interval
// widths tie at every step.
func TestRankDeterminismProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		s, dnfs := randomAnswerSet(int64(60_000+trial), trial%2 == 1, 10, 9)
		k := 1 + trial%5
		first, err := TopK(context.Background(), s, dnfs, k, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := TopK(context.Background(), s, dnfs, k, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("trial %d rerun", trial), first, again, nil, nil)
		ref, err := refTopK(context.Background(), s, dnfs, k, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("trial %d vs reference", trial), first, ref, nil, nil)
	}
}

// Width ties everywhere: isomorphic answers (the same clause pattern
// over disjoint variable blocks with identical probabilities) keep
// every interval — and so every pick and every membership race — in an
// exact tie throughout refinement. The documented tie-break must
// resolve the whole ranking to the lowest indices, identically to the
// reference scheduler.
func TestRankDeterminismTieBreak(t *testing.T) {
	s := formula.NewSpace()
	const n, k = 8, 3
	dnfs := make([]formula.DNF, n)
	for i := 0; i < n; i++ {
		vars := make([]formula.Var, 10)
		for j := range vars {
			vars[j] = s.AddBool(0.03 + 0.02*float64(j%4))
		}
		var d formula.DNF
		for j := 0; j < 9; j++ {
			c, ok := formula.NewClause(
				formula.Pos(vars[j]), formula.Pos(vars[(j+3)%len(vars)]), formula.Pos(vars[(j+7)%len(vars)]))
			if !ok {
				t.Fatal("clause construction failed")
			}
			d = append(d, c)
		}
		dnfs[i] = d.Normalize()
	}
	res, err := TopK(context.Background(), s, dnfs, k, Options{Eps: 1e-9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pos, i := range res.Ranking {
		if i != pos {
			t.Fatalf("tied answers must select lowest indices in order, got ranking %v", res.Ranking)
		}
	}
	ref, err := refTopK(context.Background(), s, dnfs, k, Options{Eps: 1e-9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "ties vs reference", res, ref, nil, nil)
	// Refinement must actually have happened for the tie-break to have
	// been exercised below the surface.
	if res.Steps == 0 {
		t.Fatal("tie workload decided at preparation; grow it past the exact shortcut")
	}
}

// The schedulers must never spend more refinement steps than the
// non-pruning baseline on the same answers.
func TestRankNeverExceedsRefineAll(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		s, dnfs := randomAnswerSet(int64(77+trial), trial%2 == 0, 12, 9)
		full, err := RefineAll(context.Background(), s, dnfs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		topk, err := TopK(context.Background(), s, dnfs, 3, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if topk.Steps > full.Steps {
			t.Fatalf("trial %d: top-k spent %d steps, full evaluation %d", trial, topk.Steps, full.Steps)
		}
	}
}
