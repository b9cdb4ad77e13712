package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/randdnf"
)

// Differential tests of the decomposition memo (decompose / replay). A
// refinement that replays recorded decisions must be indistinguishable
// from one that re-derives them. A cache reloaded through Save /
// LoadFragCache holds the same entries without any decision, so it is
// the re-deriving side, with no switch in the code under test.

// refineRun is everything observable about one Refiner run to
// completion.
type refineRun struct {
	bounds       [][2]float64   // after every Step(1)
	steps        int            // Refiner.Steps
	res          Result         // Refiner.Result
	err          string         // Refiner.Err, formatted
	work         int64          // work charged against MaxWork
	cache        obs.CacheStats // FragCache hit/miss deltas over the run, entries after it
	hits, misses int64          // obs.Snapshot fragment counters
	prepares     int64          // leaf.prepare firings
}

// runRefiner refines d to completion on frags, one Step(1) at a time,
// with a metrics registry of its own and an injector whose leaf.prepare
// site is armed to count firings but never faults.
func runRefiner(s *formula.Space, d formula.DNF, opt Options, frags *formula.FragCache) refineRun {
	inj := fault.NewInjector(1)
	inj.Configure(fault.SiteLeafPrepare, fault.SiteConfig{})
	opt.Frags, opt.Metrics, opt.Inject = frags, obs.NewMetrics(), inj
	before := frags.CacheStats()
	r := NewRefiner(context.Background(), s, d, opt)
	var run refineRun
	for !r.Done() {
		lo, hi, _ := r.Step(1)
		run.bounds = append(run.bounds, [2]float64{lo, hi})
	}
	after := frags.CacheStats()
	snap := opt.Metrics.Snapshot()
	run.steps, run.res, run.err, run.work = r.Steps(), r.Result(), fmt.Sprint(r.Err()), r.st.work
	run.cache = obs.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Entries: after.Entries}
	run.hits, run.misses = snap.FragCacheHits, snap.FragCacheMisses
	run.prepares = inj.Stats()[fault.SiteLeafPrepare].Fired
	return run
}

// diffRuns describes the first difference between two runs, or returns
// "". Bounds and steps are always compared; full adds the Result, the
// error, the work charge, every counter and the firing count.
func diffRuns(a, b refineRun, full bool) string {
	if len(a.bounds) != len(b.bounds) {
		return fmt.Sprintf("%d bound traces vs %d", len(a.bounds), len(b.bounds))
	}
	for i := range a.bounds {
		for k := range a.bounds[i] {
			if math.Float64bits(a.bounds[i][k]) != math.Float64bits(b.bounds[i][k]) {
				return fmt.Sprintf("bounds after step %d: %v vs %v", i, a.bounds[i], b.bounds[i])
			}
		}
	}
	if a.steps != b.steps {
		return fmt.Sprintf("Steps %d vs %d", a.steps, b.steps)
	}
	if !full {
		return ""
	}
	switch {
	case a.res != b.res:
		return fmt.Sprintf("Result %+v vs %+v", a.res, b.res)
	case a.err != b.err:
		return fmt.Sprintf("Err %s vs %s", a.err, b.err)
	case a.work != b.work:
		return fmt.Sprintf("work %d vs %d", a.work, b.work)
	case a.cache != b.cache:
		return fmt.Sprintf("CacheStats %+v vs %+v", a.cache, b.cache)
	case a.hits != b.hits || a.misses != b.misses:
		return fmt.Sprintf("obs fragment hits/misses %d/%d vs %d/%d", a.hits, a.misses, b.hits, b.misses)
	case a.prepares != b.prepares:
		return fmt.Sprintf("leaf.prepare firings %d vs %d", a.prepares, b.prepares)
	}
	return ""
}

// replayDiff refines d three ways: (a) on a cold cache, (b) again on
// that now-warm cache, so recorded decisions replay, and (c) on a copy
// of the cache after (a) reloaded through Save / LoadFragCache, whose
// entries carry no decisions. (b) and (c) must agree in everything
// observable, and both with (a) on bounds and steps. It also returns
// run (a) and whether (b) had a decision to replay at the root.
func replayDiff(s *formula.Space, d formula.DNF, opt Options) (diff string, cold refineRun, replayed bool) {
	warm := formula.NewFragCache(0)
	a := runRefiner(s, d, opt, warm)
	var buf bytes.Buffer
	if err := warm.Save(&buf); err != nil {
		return "Save: " + err.Error(), a, false
	}
	reloaded, err := formula.LoadFragCache(&buf, 0)
	if err != nil || reloaded.Len() != warm.Len() {
		return fmt.Sprintf("reload: %d of %d entries (%v)", reloaded.Len(), warm.Len(), err), a, false
	}
	if root, ok := reloaded.Lookup(d, variantPrepared); ok && root.Decision() != nil {
		return "a reloaded entry carries a decision", a, false
	}
	if root, ok := warm.Lookup(d, variantPrepared); ok {
		replayed = root.Decision() != nil
	}
	b := runRefiner(s, d, opt, warm)
	c := runRefiner(s, d, opt, reloaded)
	if diff := diffRuns(b, c, true); diff != "" {
		return "replayed vs re-derived: " + diff, a, replayed
	}
	if diff := diffRuns(a, b, false); diff != "" {
		return "cold vs replayed: " + diff, a, replayed
	}
	if diff := diffRuns(a, c, false); diff != "" {
		return "cold vs re-derived: " + diff, a, replayed
	}
	return "", a, replayed
}

// budgetCut returns opt with MaxWork set to half the work a run charged
// without a budget, so the trace stops mid-tree on ErrBudget.
func budgetCut(opt Options, unbudgeted refineRun) Options {
	opt.MaxWork = int(unbudgeted.work / 2)
	return opt
}

// TestRefinerReplayMatchesRederivation runs replayDiff over the
// preparation corpora, each formula once as its corpus sets it and once
// under a MaxWork budget that cuts it mid-tree.
func TestRefinerReplayMatchesRederivation(t *testing.T) {
	replays, cuts := 0, 0
	for ci, corpus := range prepCorpora {
		for seed := int64(0); seed < 32; seed++ {
			s, d := randdnf.Generate(corpus.cfg, 2000*int64(ci)+seed)
			opt := corpus.opt
			diff, cold, replayed := replayDiff(s, d, opt)
			if diff != "" {
				t.Fatalf("corpus %d seed %d: %s", ci, seed, diff)
			}
			if replayed {
				replays++
			}
			if opt.MaxWork > 0 || cold.steps == 0 {
				continue
			}
			diff, cut, _ := replayDiff(s, d, budgetCut(opt, cold))
			if diff != "" {
				t.Fatalf("corpus %d seed %d, MaxWork %d: %s", ci, seed, cold.work/2, diff)
			}
			if cut.err == ErrBudget.Error() && cut.steps > 0 {
				cuts++
			}
		}
	}
	if replays < 90 || cuts < 20 {
		t.Fatalf("%d runs replayed a root decision and %d budgets cut a trace mid-tree; the property needs ≥ 90 and ≥ 20", replays, cuts)
	}
}

// TestDecisionOrderIsolationConcurrent has eight goroutines refine one
// DNF set on one shared FragCache (run under -race). Each result must
// equal its solo run on a cache of its own: racing publishers of the
// same decision are harmless, and a decision read while another
// goroutine records it replays whole.
func TestDecisionOrderIsolationConcurrent(t *testing.T) {
	const workers = 8
	s := formula.NewSpace()
	var set []formula.DNF
	for n := 3; n <= 7; n++ {
		set = append(set, iqWithHub(s, n))
	}
	opt := Options{Eps: 1e-4, Kind: Absolute}
	var solo []refineRun
	frags := formula.NewFragCache(0)
	for _, d := range set {
		solo = append(solo, runRefiner(s, d, opt, frags))
	}

	shared := formula.NewFragCache(0)
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at its own offset, so the set is
			// decomposed cold, warm and concurrently, in every mix.
			for k := range set {
				i := (k + w) % len(set)
				if diff := diffRuns(solo[i], runRefiner(s, set[i], opt, shared), false); diff != "" {
					errs[w] = fmt.Sprintf("DNF %d: %s", i, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
	}
}

// TestRefinerWarmOverSaveWrittenWithComps refines over formula's
// committed real-save fixture, a v3 save written while entries still
// carried their component partition. Its prepared entries hold the
// fragments x_2i ∧ x_2i+1 ∨ ¬x_2i, the odd ones under variant 1, which
// a build with a subsumption switch used and this one never reads. The
// first refinement of an even fragment is answered by its persisted
// entry; an odd one misses and is prepared cold, next to the entry it
// cannot see. A second identical refinement reports only hits.
func TestRefinerWarmOverSaveWrittenWithComps(t *testing.T) {
	raw, err := os.ReadFile("../formula/testdata/fuzz/FuzzLoadFragCache/real-save")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	frags, err := formula.LoadFragCache(strings.NewReader(data), 0)
	if err != nil || frags.Len() != 11 {
		t.Fatalf("fixture loaded %d entries (%v), want 11", frags.Len(), err)
	}
	s := formula.NewSpace()
	for v := 0; v < 16; v++ {
		s.AddBool(0.3 + 0.02*float64(v))
	}
	for i := 0; i < 8; i++ {
		x, y := formula.Var(2*i), formula.Var(2*i+1)
		d := formula.DNF{formula.MustClause(formula.Pos(x), formula.Pos(y)), formula.MustClause(formula.Neg(x))}
		opt := Options{Eps: 1e-9, Kind: Absolute}
		first := runRefiner(s, d, opt, frags)
		if persisted := i%2 == 0; first.steps != 0 || (first.cache.Hits == 1) != persisted || (first.cache.Misses == 1) == persisted {
			t.Fatalf("fragment %d: first refinement took %d steps with %+v; a variant-0 entry must answer it, a variant-1 entry must not", i, first.steps, first.cache)
		}
		second := runRefiner(s, d, opt, frags)
		if second.cache.Misses != 0 || second.misses != 0 || second.cache.Hits != second.prepares {
			t.Fatalf("fragment %d: second refinement %+v, want every preparation a hit", i, second.cache)
		}
		if diff := diffRuns(first, second, false); diff != "" {
			t.Fatalf("fragment %d: %s", i, diff)
		}
	}
	if frags.Len() != 11+4 {
		t.Fatalf("%d entries after refining, want the 11 loaded and the 4 odd fragments prepared cold", frags.Len())
	}
}

// FuzzRefinerReplayMatchesCold decodes bytes into a small tagged DNF
// (as FuzzDecomposeMatchesOracle does) and checks that replaying
// recorded decisions and re-deriving them from a reloaded cache agree
// in everything observable: under a work budget large enough to bound
// the input, then under half of what that run charged.
func FuzzRefinerReplayMatchesCold(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 1, 2, 1, 1, 3})                // 2×2 product
	f.Add([]byte{6, 3, 0, 1, 2, 0, 1, 2, 2, 0, 1, 2, 1, 3, 2, 3, 4, 2, 0, 5, 2, 1, 5}) // R-S-T chain
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, d := decodeTaggedDNF(data)
		if len(d) == 0 {
			t.Skip()
		}
		opt := Options{Eps: 1e-6, Kind: Absolute, MaxWork: 20000}
		diff, cold, _ := replayDiff(s, d, opt)
		if diff == "" && cold.steps > 0 {
			opt = budgetCut(opt, cold)
			diff, _, _ = replayDiff(s, d, opt)
		}
		if diff != "" {
			t.Fatalf("MaxWork %d: %s\n%s", opt.MaxWork, diff, d.String(s))
		}
	})
}

// iqWithHub adds to s an inequality-query lineage, clause x_i ∧ y_j for
// i ≤ j < n, plus a hub variable z of a third relation in a clause with
// every y_j and with x_0. z, created first, ties x_0 as the most frequent
// variable and wins on id, but Lemma 6.8 rejects z (it misses x_1 …
// x_{n-1}), so chooseVar expands x_0: the rule, not its fallback,
// decides from the root down.
func iqWithHub(s *formula.Space, n int) formula.DNF {
	z := s.AddBoolTagged(0.35, 3)
	xs, ys := make([]formula.Var, n), make([]formula.Var, n)
	for i := range xs {
		xs[i] = s.AddBoolTagged(0.2+0.1*float64(i%5), 1)
		ys[i] = s.AddBoolTagged(0.7-0.1*float64(i%5), 2)
	}
	var d formula.DNF
	for i := range xs {
		for j := i; j < n; j++ {
			d = append(d, formula.MustClause(formula.Pos(xs[i]), formula.Pos(ys[j])))
		}
	}
	for j := range ys {
		d = append(d, formula.MustClause(formula.Pos(z), formula.Pos(ys[j])))
	}
	d = append(d, formula.MustClause(formula.Pos(z), formula.Pos(xs[0])))
	return d.Normalize()
}
