package rank

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/randdnf"
)

// requireSameResult demands bitwise-identical ranking outcomes: every
// Item field (bounds, estimates, step counts, DecidedAtStep, flags),
// the ranking order, the total steps, and the emit hook's emission
// sequences.
func requireSameResult(t *testing.T, label string, a, b Result, emitA, emitB []Item) {
	t.Helper()
	if a.Steps != b.Steps {
		t.Fatalf("%s: steps diverged: %d vs %d", label, a.Steps, b.Steps)
	}
	if len(a.Items) != len(b.Items) || len(a.Ranking) != len(b.Ranking) {
		t.Fatalf("%s: result shapes diverged: %d/%d items, %d/%d ranked",
			label, len(a.Items), len(b.Items), len(a.Ranking), len(b.Ranking))
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("%s: item %d diverged:\n%+v\n%+v", label, i, a.Items[i], b.Items[i])
		}
	}
	for i := range a.Ranking {
		if a.Ranking[i] != b.Ranking[i] {
			t.Fatalf("%s: rankings diverged: %v vs %v", label, a.Ranking, b.Ranking)
		}
	}
	if len(emitA) != len(emitB) {
		t.Fatalf("%s: emission counts diverged: %d vs %d", label, len(emitA), len(emitB))
	}
	for i := range emitA {
		if emitA[i] != emitB[i] {
			t.Fatalf("%s: emission %d diverged:\n%+v\n%+v", label, i, emitA[i], emitB[i])
		}
	}
}

// Differential property: the event-driven decide index and width heap
// must be indistinguishable from the full-rescan oracle scheduler —
// same decisions, in the same order, at the same step counts — across
// random TI and BID answer sets, both cut modes, several k and τ.
func TestRankDecideIncrementalMatchesFullScanProperty(t *testing.T) {
	run := func(label string, exec, ref func(emit func(Item)) (Result, error)) {
		t.Helper()
		var emitInc, emitFull []Item
		inc, err1 := exec(func(it Item) { emitInc = append(emitInc, it) })
		full, err2 := ref(func(it Item) { emitFull = append(emitFull, it) })
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", label, err1, err2)
		}
		requireSameResult(t, label, inc, full, emitInc, emitFull)
	}
	for trial := 0; trial < 60; trial++ {
		bid := trial%2 == 1
		n := 8 + trial%7
		s, dnfs := randomAnswerSet(int64(40_000+trial), bid, n, 9)
		k := 1 + trial%5
		run(fmt.Sprintf("topk trial %d", trial), func(emit func(Item)) (Result, error) {
			return TopK(context.Background(), s, dnfs, k, Options{}, emit)
		}, func(emit func(Item)) (Result, error) {
			return refTopK(context.Background(), s, dnfs, k, Options{}, emit)
		})
		tau := 0.1 + 0.2*float64(trial%4)
		run(fmt.Sprintf("threshold trial %d", trial), func(emit func(Item)) (Result, error) {
			return Threshold(context.Background(), s, dnfs, tau, Options{}, emit)
		}, func(emit func(Item)) (Result, error) {
			return refThreshold(context.Background(), s, dnfs, tau, Options{}, emit)
		})
	}
}

// The decide index must also agree on the big skewed randdnf.Answers
// workload — the regime the incremental path is built for.
func TestRankDecideIncrementalMatchesFullScanBench(t *testing.T) {
	s, dnfs := randdnf.Answers(120)
	opt := Options{Eps: 1e-6}
	inc, err1 := TopK(context.Background(), s, dnfs, 10, opt, nil)
	full, err2 := refTopK(context.Background(), s, dnfs, 10, opt, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v / %v", err1, err2)
	}
	requireSameResult(t, "bench workload", inc, full, nil, nil)
	thInc, err1 := Threshold(context.Background(), s, dnfs, 0.5, opt, nil)
	thFull, err2 := refThreshold(context.Background(), s, dnfs, 0.5, opt, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v / %v", err1, err2)
	}
	requireSameResult(t, "bench threshold", thInc, thFull, nil, nil)
}
