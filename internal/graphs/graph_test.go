package graphs

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/formula"
)

func TestCompleteGraphShape(t *testing.T) {
	g := Complete(5, 0.5)
	if g.NumEdges() != 10 {
		t.Fatalf("K5 has %d edges, want 10", g.NumEdges())
	}
	if g.Space().NumVars() != 10 {
		t.Fatalf("%d variables, want 10", g.Space().NumVars())
	}
	if _, ok := g.EdgeVar(4, 0); !ok {
		t.Fatal("edge lookup must be symmetric")
	}
	if _, ok := g.EdgeVar(0, 0); ok {
		t.Fatal("no self loops")
	}
}

func TestUniformWorldProbability(t *testing.T) {
	// With edge probability 1/2, each of the 2^(n(n-1)/2) worlds is
	// uniform (Section VII-B).
	g := Complete(4, 0.5)
	world := make(formula.Clause, 0, g.NumEdges())
	for _, e := range g.Edges() {
		v, _ := g.EdgeVar(e[0], e[1])
		world = append(world, formula.Pos(v))
	}
	c, ok := formula.NewClause(world...)
	if !ok {
		t.Fatal("world clause inconsistent")
	}
	if got := c.Probability(g.Space()); math.Abs(got-1.0/64) > 1e-15 {
		t.Fatalf("world probability %v, want 1/64", got)
	}
}

func TestTriangleDNFShape(t *testing.T) {
	// The paper: a 40-node clique gives 780 variables and 9880 clauses.
	g := Complete(40, 0.3)
	d := g.TriangleDNF()
	if g.NumEdges() != 780 {
		t.Fatalf("edges %d, want 780", g.NumEdges())
	}
	if len(d) != 9880 {
		t.Fatalf("clauses %d, want C(40,3)=9880", len(d))
	}
	for _, c := range d {
		if len(c) != 3 {
			t.Fatalf("triangle clause width %d", len(c))
		}
	}
}

func TestTriangleProbabilitySmall(t *testing.T) {
	g := Complete(4, 0.5)
	d := g.TriangleDNF()
	want := formula.BruteForceProbability(g.Space(), d)
	got, err := core.ApproxCtx(context.Background(), g.Space(), d, core.Options{Eps: 0.001, Kind: core.Absolute})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Estimate-want) > 0.001+1e-9 {
		t.Fatalf("triangle P: %v vs brute %v", got.Estimate, want)
	}
	// K4 with p=1/2: P(some triangle). Verify against a direct count:
	// enumerate 2^6 edge subsets.
	count := 0
	for mask := 0; mask < 64; mask++ {
		if hasTriangleMask(4, mask) {
			count++
		}
	}
	if math.Abs(want-float64(count)/64) > 1e-12 {
		t.Fatalf("brute %v vs subgraph count %v", want, float64(count)/64)
	}
}

// hasTriangleMask interprets mask bits as edges of Complete(n, ·) in the
// same (u,v) enumeration order and checks for a triangle.
func hasTriangleMask(n, mask int) bool {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	idx := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<idx) != 0 {
				adj[u][v], adj[v][u] = true, true
			}
			idx++
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				if adj[i][j] && adj[j][k] && adj[i][k] {
					return true
				}
			}
		}
	}
	return false
}

func TestPath2DNF(t *testing.T) {
	g := Complete(4, 0.5)
	d := g.PathDNF(2)
	// Paths of length 2 in K4: middle node (4 choices) × C(3,2) pairs = 12.
	if len(d) != 12 {
		t.Fatalf("path2 clauses %d, want 12", len(d))
	}
	want := formula.BruteForceProbability(g.Space(), d)
	got := exactP(g.Space(), d)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("path2 P %v vs %v", got, want)
	}
}

func TestPath3DNF(t *testing.T) {
	g := Complete(4, 0.3)
	d := g.PathDNF(3)
	// Simple 3-edge paths in K4: 4!/2 = 12 node orders / ... count:
	// ordered simple paths a-b-c-d = 4·3·2·1 = 24, halved = 12.
	if len(d) != 12 {
		t.Fatalf("path3 clauses %d, want 12", len(d))
	}
	for _, c := range d {
		if len(c) != 3 {
			t.Fatalf("path3 clause width %d, want 3", len(c))
		}
	}
	want := formula.BruteForceProbability(g.Space(), d)
	got := exactP(g.Space(), d)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("path3 P %v vs %v", got, want)
	}
}

func TestPathDNFPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 4")
		}
	}()
	Complete(4, 0.5).PathDNF(4)
}

func TestSeparationDNF(t *testing.T) {
	g := Complete(5, 0.4)
	d := g.SeparationDNF(0, 4)
	// Direct edge + 3 two-hop paths.
	if len(d) != 4 {
		t.Fatalf("s2 clauses %d, want 4", len(d))
	}
	want := formula.BruteForceProbability(g.Space(), d)
	got := exactP(g.Space(), d)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("s2 P %v vs %v", got, want)
	}
}

func TestSeparationSparse(t *testing.T) {
	// Path graph 0-1-2: s2(0,2) has only the two-hop clause.
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}}, []float64{0.5, 0.5})
	d := g.SeparationDNF(0, 2)
	if len(d) != 1 || len(d[0]) != 2 {
		t.Fatalf("s2 lineage %v", d)
	}
	if got := exactP(g.Space(), d); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("P = %v, want 0.25", got)
	}
}

func TestKarate(t *testing.T) {
	g := Karate(1)
	if g.N != 34 || g.NumEdges() != KarateEdgeCount {
		t.Fatalf("karate: %d nodes, %d edges", g.N, g.NumEdges())
	}
	// The Figure 5 sub-network: edges (5,7),(5,11),(6,7),(6,11),(6,17),
	// (7,17) all exist (1-indexed; 0-indexed here).
	for _, e := range [][2]int{{4, 6}, {4, 10}, {5, 6}, {5, 10}, {5, 16}, {6, 16}} {
		if _, ok := g.EdgeVar(e[0], e[1]); !ok {
			t.Fatalf("karate missing Figure-5 edge %v", e)
		}
	}
	// Probabilities vary and lie in [0.3, 0.95).
	seen := map[float64]bool{}
	for _, e := range g.Edges() {
		v, _ := g.EdgeVar(e[0], e[1])
		p := g.Space().PTrue(v)
		if p < 0.3 || p >= 0.95 {
			t.Fatalf("edge probability %v outside [0.3, 0.95)", p)
		}
		seen[p] = true
	}
	if len(seen) < 10 {
		t.Fatal("edge probabilities should vary")
	}
}

func TestKarateDeterministic(t *testing.T) {
	a := Karate(7)
	b := Karate(7)
	for _, e := range a.Edges() {
		va, _ := a.EdgeVar(e[0], e[1])
		vb, _ := b.EdgeVar(e[0], e[1])
		if a.Space().PTrue(va) != b.Space().PTrue(vb) {
			t.Fatal("same seed must give same probabilities")
		}
	}
}

func TestDolphins(t *testing.T) {
	g := Dolphins(3)
	if g.N != 62 || g.NumEdges() != 159 {
		t.Fatalf("dolphins: %d nodes, %d edges; want 62/159", g.N, g.NumEdges())
	}
	// Degree distribution must be skewed (preferential attachment):
	// max degree well above the mean of ~5.1.
	deg := make([]int, g.N)
	for _, e := range g.Edges() {
		deg[e[0]]++
		deg[e[1]]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 10 {
		t.Fatalf("max degree %d; expected a skewed distribution", maxDeg)
	}
}

func TestSocialNetworkQueriesRun(t *testing.T) {
	// Smoke: the four queries of Figure 9 produce sane lineage on the
	// karate network, and d-tree approximates them.
	g := Karate(1)
	s := g.Space()
	queries := map[string]formula.DNF{
		"t":  g.TriangleDNF(),
		"p2": g.PathDNF(2),
		"p3": g.PathDNF(3),
		"s2": g.SeparationDNF(0, 33),
	}
	for name, d := range queries {
		if len(d) == 0 {
			t.Fatalf("%s: empty lineage", name)
		}
		res, err := core.ApproxCtx(context.Background(), s, d, core.Options{Eps: 0.05, Kind: core.Relative})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Estimate <= 0 || res.Estimate > 1 {
			t.Fatalf("%s: result %+v", name, res)
		}
	}
}

// TestKarateHubs pins Fig. 9's s2 instance on karate: the hubs are the
// two faction leaders, members 34 and 1 (0-indexed 33 and 0), and the
// hubs' separation is bitwise the separation of 0 and 33.
func TestKarateHubs(t *testing.T) {
	g := Karate(1)
	if h1, h2 := g.Hubs(); h1 != 33 || h2 != 0 {
		t.Fatalf("hubs %d, %d; want 33, 0", h1, h2)
	}
	if got, want := g.SeparationDNF(g.Hubs()), g.SeparationDNF(0, 33); !reflect.DeepEqual(got, want) {
		t.Fatalf("s2 over the hubs %v, want %v", got, want)
	}
}

func TestFromEdgesRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate edge")
		}
	}()
	FromEdges(3, [][2]int{{0, 1}, {1, 0}}, []float64{0.5, 0.5})
}

func TestNodeTriangleDNF(t *testing.T) {
	g := Karate(1)
	whole := g.TriangleDNF().Normalize()
	// Every whole-graph triangle clause appears in exactly the three
	// per-node DNFs of its corners, so the per-node clause counts sum
	// to three times the triangle count.
	sum := 0
	for v := 0; v < g.N; v++ {
		d := g.NodeTriangleDNF(v)
		sum += len(d)
		for _, c := range d {
			touches := false
			for _, a := range c {
				for u := 0; u < g.N; u++ {
					if e, ok := g.EdgeVar(v, u); ok && e == a.Var {
						touches = true
					}
				}
			}
			if !touches {
				t.Fatalf("node %d clause %v has no incident edge", v, c)
			}
		}
	}
	if sum != 3*len(whole) {
		t.Fatalf("per-node clauses sum %d, want 3x%d triangles", sum, len(whole))
	}
}

// exactP is P(d) by exact d-tree compilation.
func exactP(s *formula.Space, d formula.DNF) float64 {
	res, err := core.ExactCtx(context.Background(), s, d, core.Options{})
	if err != nil {
		panic(err)
	}
	return res.Estimate
}

// TestGlobalNodesOnFigure8Triangles pins the nodes ApproxCtx (the
// Refiner) builds on Fig. 8's triangle query over K_n at p = 0.3, under
// a work budget of 30 000 000 (above the figure harness's 8 × 3 000 000;
// every case converges below both). While the Refiner refined the widest
// leaf rather than the one with the largest width × root sensitivity
// they read 9 808 (n = 8, relative 0.05), 6 067 (n = 8, absolute 0.05),
// 19 305 (n = 8, relative 0.01) and 130 (n = 6, relative 0.05), and
// one less each while the prepared root went uncounted.
func TestGlobalNodesOnFigure8Triangles(t *testing.T) {
	for _, tc := range []struct {
		n     int
		eps   float64
		kind  core.ErrorKind
		nodes int
	}{
		{8, 0.05, core.Relative, 4312},
		{8, 0.05, core.Absolute, 2184},
		{8, 0.01, core.Relative, 12252},
		{6, 0.05, core.Relative, 99},
	} {
		g := Complete(tc.n, 0.3)
		res, err := core.ApproxCtx(context.Background(), g.Space(), g.TriangleDNF(),
			core.Options{Eps: tc.eps, Kind: tc.kind, MaxWork: 30_000_000})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d %v %v: converged=%v err=%v", tc.n, tc.kind, tc.eps, res.Converged, err)
		}
		if res.Nodes != tc.nodes {
			t.Errorf("n=%d %v %v: %d nodes, want %d", tc.n, tc.kind, tc.eps, res.Nodes, tc.nodes)
		}
	}
}

// TestKarateEdgeNames: every variable of the network's space carries
// its edge's explicit name "e<u>_<v>".
func TestKarateEdgeNames(t *testing.T) {
	g := Karate(1)
	if g.Space().NumVars() != g.NumEdges() {
		t.Fatalf("%d variables for %d edges", g.Space().NumVars(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		v, ok := g.EdgeVar(e[0], e[1])
		if want := fmt.Sprintf("e%d_%d", e[0], e[1]); !ok || g.Space().Name(v) != want {
			t.Fatalf("edge %v: Name(%d) = %q, want %q", e, v, g.Space().Name(v), want)
		}
	}
}
