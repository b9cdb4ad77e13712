package graphs

import "math/rand"

// karateEdges is Zachary's karate club network [28]: 34 nodes, 78 edges
// (1-indexed as in the original dataset). The paper's Figure 5 example
// network is exactly the sub-network of nodes {5, 6, 7, 11, 17}.
var karateEdges = [][2]int{
	{1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7}, {1, 8}, {1, 9},
	{1, 11}, {1, 12}, {1, 13}, {1, 14}, {1, 18}, {1, 20}, {1, 22}, {1, 32},
	{2, 3}, {2, 4}, {2, 8}, {2, 14}, {2, 18}, {2, 20}, {2, 22}, {2, 31},
	{3, 4}, {3, 8}, {3, 9}, {3, 10}, {3, 14}, {3, 28}, {3, 29}, {3, 33},
	{4, 8}, {4, 13}, {4, 14},
	{5, 7}, {5, 11},
	{6, 7}, {6, 11}, {6, 17},
	{7, 17},
	{9, 31}, {9, 33}, {9, 34},
	{10, 34},
	{14, 34},
	{15, 33}, {15, 34},
	{16, 33}, {16, 34},
	{19, 33}, {19, 34},
	{20, 34},
	{21, 33}, {21, 34},
	{23, 33}, {23, 34},
	{24, 26}, {24, 28}, {24, 30}, {24, 33}, {24, 34},
	{25, 26}, {25, 28}, {25, 32},
	{26, 32},
	{27, 30}, {27, 34},
	{28, 34},
	{29, 32}, {29, 34},
	{30, 33}, {30, 34},
	{31, 33}, {31, 34},
	{32, 33}, {32, 34},
	{33, 34},
}

// Fig. 9's edge-probability ranges: karate's edges are drawn from
// [karateLo, karateHi), dolphins' from [dolphinsLo, dolphinsHi).
const (
	karateLo, karateHi     = 0.3, 0.95
	dolphinsLo, dolphinsHi = 0.5, 0.99
)

// Karate returns Zachary's karate club as a probabilistic graph with
// per-edge probabilities drawn deterministically from Fig. 9's range
// [0.3, 0.95): edges of the dataset have varying degrees of confidence
// (varying friendship strength), edges absent from the dataset are
// missing with certainty — the block-independent-disjoint reading of
// Section VII-B.
func Karate(seed int64) *Graph {
	edges := make([][2]int, len(karateEdges))
	for i, e := range karateEdges {
		edges[i] = [2]int{e[0] - 1, e[1] - 1} // 0-indexed
	}
	return FromEdges(34, edges, assignProbs(len(edges), karateLo, karateHi, seed))
}

// KarateEdgeCount is the number of edges of the karate club network.
const KarateEdgeCount = 78

// Dolphins returns a synthetic stand-in for Lusseau's dolphin social
// network: 62 nodes and 159 edges, generated with a seeded
// preferential-attachment process so the degree distribution is skewed
// like the real network's. The raw edge list of the original dataset is
// not reproducible from the paper; the node/edge counts and the
// varying-confidence edge-probability regime — which determine DNF size
// and hardness — are preserved. Edge probabilities are drawn from Fig.
// 9's range [0.5, 0.99).
func Dolphins(seed int64) *Graph {
	const n = 62
	const m = 159
	rng := rand.New(rand.NewSource(seed))
	type key = [2]int
	used := make(map[key]bool, m)
	var edges [][2]int
	degree := make([]int, n)
	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		k := edgeKey(u, v)
		if used[k] {
			return false
		}
		used[k] = true
		edges = append(edges, k)
		degree[u]++
		degree[v]++
		return true
	}
	// Seed a connected backbone, then attach preferentially.
	for v := 1; v < n; v++ {
		u := pickWeighted(rng, degree[:v])
		addEdge(u, v)
	}
	for len(edges) < m {
		u := rng.Intn(n)
		v := pickWeighted(rng, degree)
		addEdge(u, v)
	}
	return FromEdges(n, edges, assignProbs(len(edges), dolphinsLo, dolphinsHi, seed+1))
}

// pickWeighted picks an index proportionally to weight+1 (so isolated
// nodes remain reachable).
func pickWeighted(rng *rand.Rand, weights []int) int {
	if len(weights) == 0 {
		return 0
	}
	total := 0
	for _, w := range weights {
		total += w + 1
	}
	u := rng.Intn(total)
	for i, w := range weights {
		u -= w + 1
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}
