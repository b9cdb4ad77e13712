package sprout

import (
	"math"
	"math/rand"
	"testing"
)

// bruteChain enumerates all presence worlds and checks for a strict
// chain with one present element per level. Exponential; levels are
// kept tiny.
func bruteChain(levels [][]WeightedValue) float64 {
	var all []WeightedValue
	var levelOf []int
	for li, l := range levels {
		for _, e := range l {
			all = append(all, e)
			levelOf = append(levelOf, li)
		}
	}
	n := len(all)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		present := make([][]int64, len(levels))
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p *= all[i].Prob
				present[levelOf[i]] = append(present[levelOf[i]], all[i].Val)
			} else {
				p *= 1 - all[i].Prob
			}
		}
		if chainExists(present, 0, math.MinInt64) {
			total += p
		}
	}
	return total
}

func chainExists(present [][]int64, level int, above int64) bool {
	if level == len(present) {
		return true
	}
	for _, v := range present[level] {
		if v > above && chainExists(present, level+1, v) {
			return true
		}
	}
	return false
}

// bruteStar enumerates worlds for the Exists1Suffix pattern.
func bruteStar(es []WeightedValue, groups [][]WeightedValue) float64 {
	levels := append([][]WeightedValue{es}, groups...)
	var all []WeightedValue
	var levelOf []int
	for li, l := range levels {
		for _, e := range l {
			all = append(all, e)
			levelOf = append(levelOf, li)
		}
	}
	n := len(all)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		present := make([][]int64, len(levels))
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p *= all[i].Prob
				present[levelOf[i]] = append(present[levelOf[i]], all[i].Val)
			} else {
				p *= 1 - all[i].Prob
			}
		}
		ok := false
		for _, e := range present[0] {
			good := true
			for g := 1; g < len(levels); g++ {
				found := false
				for _, w := range present[g] {
					if w > e {
						found = true
						break
					}
				}
				if !found {
					good = false
					break
				}
			}
			if good {
				ok = true
				break
			}
		}
		if ok {
			total += p
		}
	}
	return total
}

func randomLevel(rng *rand.Rand, n, valRange int) []WeightedValue {
	out := make([]WeightedValue, n)
	for i := range out {
		out[i] = WeightedValue{
			Val:  int64(rng.Intn(valRange)),
			Prob: 0.05 + 0.9*rng.Float64(),
		}
	}
	return out
}

// The pair query q() :- R(X), S(Y), X < Y is the two-level chain.
func TestPairLessKnown(t *testing.T) {
	// x=1 (p=.5), y=2 (p=.4): P = .5·.4 = .2.
	got := ChainConfidence(
		[]WeightedValue{{1, 0.5}},
		[]WeightedValue{{2, 0.4}},
	)
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("got %v, want 0.2", got)
	}
	// Reversed values: no pair.
	got = ChainConfidence(
		[]WeightedValue{{2, 0.5}},
		[]WeightedValue{{1, 0.4}},
	)
	if got != 0 {
		t.Fatalf("got %v, want 0", got)
	}
	// Equal values: strict inequality, no pair.
	got = ChainConfidence(
		[]WeightedValue{{3, 0.9}},
		[]WeightedValue{{3, 0.9}},
	)
	if got != 0 {
		t.Fatalf("ties: got %v, want 0", got)
	}
}

func TestPairLessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		xs := randomLevel(rng, 1+rng.Intn(5), 6)
		ys := randomLevel(rng, 1+rng.Intn(5), 6)
		want := bruteChain([][]WeightedValue{xs, ys})
		got := ChainConfidence(xs, ys)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v, want %v (xs=%v ys=%v)", trial, got, want, xs, ys)
		}
	}
}

func TestChain3Random(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		a := randomLevel(rng, 1+rng.Intn(4), 8)
		b := randomLevel(rng, 1+rng.Intn(4), 8)
		c := randomLevel(rng, 1+rng.Intn(4), 8)
		want := bruteChain([][]WeightedValue{a, b, c})
		got := ChainConfidence(a, b, c)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestChainDegenerate(t *testing.T) {
	if got := ChainConfidence(); got != 0 {
		t.Fatalf("no levels: %v", got)
	}
	if got := ChainConfidence([]WeightedValue{}); got != 0 {
		t.Fatalf("empty level: %v", got)
	}
	// Single level: chain of length 1 = at least one present.
	got := ChainConfidence([]WeightedValue{{1, 0.5}, {2, 0.5}})
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("single level: %v, want 0.75", got)
	}
}

func TestChainLargeAgainstRecurrenceStability(t *testing.T) {
	// 10k elements per level: must run fast and stay within [0,1].
	rng := rand.New(rand.NewSource(3))
	a := randomLevel(rng, 10000, 100000)
	b := randomLevel(rng, 10000, 100000)
	got := ChainConfidence(a, b)
	if got < 0 || got > 1 {
		t.Fatalf("probability %v out of range", got)
	}
	if got < 0.999 {
		// With 10k high-probability elements a pair is near-certain.
		t.Fatalf("unexpectedly low probability %v", got)
	}
}

func TestStarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		es := randomLevel(rng, 1+rng.Intn(4), 8)
		g1 := randomLevel(rng, 1+rng.Intn(3), 8)
		g2 := randomLevel(rng, 1+rng.Intn(3), 8)
		want := bruteStar(es, [][]WeightedValue{g1, g2})
		got := Exists1SuffixConfidence(es, g1, g2)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestStarOneGroupEqualsPair(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		es := randomLevel(rng, 1+rng.Intn(5), 6)
		g := randomLevel(rng, 1+rng.Intn(5), 6)
		a := Exists1SuffixConfidence(es, g)
		b := ChainConfidence(es, g)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("trial %d: star %v != pair %v", trial, a, b)
		}
	}
}

func TestStarEmptyInputs(t *testing.T) {
	if got := Exists1SuffixConfidence(nil); got != 0 {
		t.Fatalf("empty es: %v", got)
	}
	es := []WeightedValue{{1, 0.5}}
	if got := Exists1SuffixConfidence(es, nil); got != 0 {
		t.Fatalf("empty group: %v", got)
	}
	// No groups: probability some e present.
	if got := Exists1SuffixConfidence(es); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("no groups: %v, want 0.5", got)
	}
}
