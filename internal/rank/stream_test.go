package rank

import (
	"context"
	"testing"

	"repro/internal/randdnf"
)

// TestRankStreamTopK proves the emit hook is a genuine streaming
// surface: proven members are emitted from inside the scheduling loop,
// strictly before the run's total refinement work completes, with
// snapshots consistent with the final result.
func TestRankStreamTopK(t *testing.T) {
	s, dnfs := randdnf.Answers(benchN)
	var emitted []Item
	res, err := TopK(context.Background(), s, dnfs, benchK, Options{Eps: benchEps}, func(it Item) {
		emitted = append(emitted, it)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) == 0 {
		t.Fatal("no answers streamed at all")
	}
	// The first proven answer must have been delivered before the
	// scheduler finished: its proof step strictly precedes the run's
	// final step count.
	if first := emitted[0]; first.DecidedAtStep >= res.Steps {
		t.Fatalf("first answer proven at step %d of %d — nothing was streamed early",
			first.DecidedAtStep, res.Steps)
	}
	selected := make(map[int]bool, len(res.Ranking))
	for _, i := range res.Ranking {
		selected[i] = true
	}
	prev := -1
	for n, it := range emitted {
		if !it.Selected || !it.Decided {
			t.Fatalf("emitted item %d (%+v) not marked Selected+Decided", n, it)
		}
		if !selected[it.Index] {
			t.Fatalf("emitted answer %d missing from the final selection %v", it.Index, res.Ranking)
		}
		if it.DecidedAtStep < prev {
			t.Fatalf("emission order regressed: step %d after %d", it.DecidedAtStep, prev)
		}
		prev = it.DecidedAtStep
		// The snapshot at proof time must agree with the final item: the
		// scheduler never refines a decided answer again.
		fin := res.Items[it.Index]
		if it.Lo != fin.Lo || it.Hi != fin.Hi || it.P != fin.P {
			t.Fatalf("emitted snapshot %+v diverges from final item %+v", it, fin)
		}
		if fin.DecidedAtStep != it.DecidedAtStep {
			t.Fatalf("final item lost DecidedAtStep: %d vs emitted %d", fin.DecidedAtStep, it.DecidedAtStep)
		}
	}
	// Emitted answers are exactly the proven members of the selection.
	proven := 0
	for _, i := range res.Ranking {
		if res.Items[i].Decided {
			proven++
		}
	}
	if len(emitted) != proven {
		t.Fatalf("streamed %d answers, final result has %d proven members", len(emitted), proven)
	}
}

// TestRankStreamThreshold mirrors the top-k streaming proof for the
// threshold cut.
func TestRankStreamThreshold(t *testing.T) {
	s, dnfs := randdnf.Answers(benchN)
	// Pick τ from a cheap full run's median estimate so the cut is
	// non-trivial in both directions.
	probe, err := RefineAll(context.Background(), s, dnfs, Options{Eps: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	tau := probe.Items[probe.Ranking[len(probe.Ranking)/3]].P

	var emitted []Item
	res, err := Threshold(context.Background(), s, dnfs, tau,
		Options{Eps: benchEps}, func(it Item) { emitted = append(emitted, it) })
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) == 0 {
		t.Fatal("no answers streamed")
	}
	if first := emitted[0]; first.DecidedAtStep >= res.Steps {
		t.Fatalf("first answer proven at step %d of %d — nothing was streamed early",
			first.DecidedAtStep, res.Steps)
	}
	for _, it := range emitted {
		if it.Lo < tau {
			t.Fatalf("emitted answer %d with Lo %v below τ %v — membership was not proven", it.Index, it.Lo, tau)
		}
	}
}

// TestRankStreamRefineAllSilent pins that the baseline proves no
// memberships — it takes no emit hook and just refines — so no answer
// carries a proof step, while TopK over the same answers does.
func TestRankStreamRefineAllSilent(t *testing.T) {
	s, dnfs := randdnf.Answers(24)
	res, err := RefineAll(context.Background(), s, dnfs, Options{Eps: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Items {
		if it.DecidedAtStep != 0 {
			t.Fatalf("RefineAll proved answer %d at step %d", it.Index, it.DecidedAtStep)
		}
	}
	fired := 0
	if _, err := TopK(context.Background(), s, dnfs, 3, Options{Eps: 1e-3}, func(Item) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("TopK over the same answers emitted nothing: the check above is vacuous")
	}
}
