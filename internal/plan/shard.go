package plan

import (
	"context"
	"fmt"
	rtrace "runtime/trace"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/workpool"
)

// Sharded lineage execution: the planner partitions the plan's leaf
// relations into n views (pdb.Shard) and the runtime runs one cursor
// chain per partition on the worker pool, each with its own
// partition-local formula.Interner. A deterministic merge then rebuilds
// exactly the answer stream the unsharded pipeline (exec.go) would have
// produced: partition views keep original tuple ordinals, the driver
// scan of each chain records the ordinal behind every output tuple, and
// per-group clause lists are k-way merged by driver ordinal — the major
// sort key of the unsharded output stream. The merged DNFs are
// re-interned into the session interner, so normalized answer DNFs are
// bitwise identical to the unsharded path and downstream caches see the
// same keys. exec.go remains the reference implementation the property
// tests compare against.
//
// Partitioning is sound because the driver (the leftmost leaf, the only
// streamed one) is always partitioned — every driver tuple lands in
// exactly one chain, so every output tuple is produced exactly once —
// and a non-driver leaf is either replicated (bitwise-identical build
// side in every chain) or co-hash-partitioned on a column in the same
// join-equality class as the driver's key: any output tuple has equal
// values across its whole equality class, so the matching build tuples
// are in the driver tuple's partition. A build tuple whose class
// columns disagree may land elsewhere, but such a tuple never survives
// to an output (some enforced equality fails), so no answer clause is
// lost.

// shardFloor is the minimum number of driver tuples per partition the
// planner will shard down to; below 2×shardFloor driver rows a query
// runs unsharded and pays zero overhead.
const shardFloor = 1024

// shardSpec is the planner's partitioning decision for a lineage-routed
// plan: how many chains to run and, per structural leaf index (DFS
// left-to-right, the analyze order), which column to hash-partition on
// (-1 = round-robin; leaves absent from keys are replicated).
type shardSpec struct {
	n    int
	keys map[int]int
	how  string
}

// planShards decides the lineage pipeline's partition count and keys,
// records them on the plan, and appends the choice to Why so
// EXPLAIN/RoutingTable output shows it. Structural routes never
// materialize lineage in Answers, so they stay unsharded.
func (p *Plan) planShards(root Node, opt Options) {
	p.Shards = 1
	p.pool = opt.Pool
	if p.Route != RouteLineage || root == nil || p.nestedRank {
		return
	}
	g, ok := root.(*GroupLineage)
	if !ok {
		g = &GroupLineage{Input: root}
	}
	if _, countable := countLeaves(g.Input); !countable {
		return
	}
	a := analyze(g)
	if len(a.leaves) == 0 {
		return
	}
	driverLen := len(a.leaves[0].rel.Tups)
	n := opt.Shards
	if n == 0 {
		n = driverLen / shardFloor
		if par := opt.Pool.Parallelism(); n > par {
			n = par
		}
	}
	if n < 2 {
		if opt.Shards == 1 {
			p.Why += "; shards=1 (forced)"
		} else {
			p.Why += "; shards=1"
		}
		return
	}
	keys, how := shardKeys(a)
	p.Shards = n
	p.shard = &shardSpec{n: n, keys: keys, how: how}
	p.Why += fmt.Sprintf("; shards=%d (%s)", n, how)
}

// shardKeys picks the partition keys: hash the driver and every
// co-partitionable leaf on a join-equality-class column when the query
// graph has one through the driver, else hash the driver on a grouping
// column it contributes, else deal the driver round-robin. Non-driver
// leaves outside the chosen class are replicated.
func shardKeys(a *analysis) (keys map[int]int, how string) {
	if len(a.eqs) > 0 {
		find := newUnionFind()
		for _, e := range a.eqs {
			find.union(e.a, e.b)
		}
		// The class is anchored at the driver's lowest column that
		// participates in any join equality.
		var anchor origin
		found := false
		for _, e := range a.eqs {
			for _, o := range [2]origin{e.a, e.b} {
				if o.leaf == 0 && (!found || o.col < anchor.col) {
					anchor, found = o, true
				}
			}
		}
		if found {
			root := find.find(anchor)
			keys = make(map[int]int)
			for _, e := range a.eqs {
				for _, o := range [2]origin{e.a, e.b} {
					if find.find(o) != root {
						continue
					}
					if c, ok := keys[o.leaf]; !ok || o.col < c {
						keys[o.leaf] = o.col
					}
				}
			}
			d := a.leaves[0].rel
			return keys, fmt.Sprintf("hash %s.%s", d.Name, d.Cols[keys[0]])
		}
	}
	for _, o := range a.head {
		if o.leaf == 0 {
			d := a.leaves[0].rel
			return map[int]int{0: o.col}, fmt.Sprintf("hash group key %s.%s", d.Name, d.Cols[o.col])
		}
	}
	return map[int]int{0: -1}, "round-robin driver"
}

// unionFind is a tiny union-find over column origins.
type unionFind struct{ parent map[origin]origin }

func newUnionFind() *unionFind { return &unionFind{parent: make(map[origin]origin)} }

func (u *unionFind) find(o origin) origin {
	p, ok := u.parent[o]
	if !ok || p == o {
		return o
	}
	r := u.find(p)
	u.parent[o] = r
	return r
}

func (u *unionFind) union(a, b origin) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		// Deterministic root: lowest (leaf, col) wins.
		if rb.leaf < ra.leaf || (rb.leaf == ra.leaf && rb.col < ra.col) {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// countLeaves returns the number of scan leaves under n, with ok=false
// on nodes the cursor runtime cannot execute (sharding then stands
// down and the unsharded path reports the error its own way).
func countLeaves(n Node) (int, bool) {
	switch t := n.(type) {
	case *Scan:
		return 1, true
	case *Select:
		return countLeaves(t.Input)
	case *EquiJoin:
		l, lok := countLeaves(t.Left)
		r, rok := countLeaves(t.Right)
		return l + r, lok && rok
	case *ThetaJoin:
		l, lok := countLeaves(t.Left)
		r, rok := countLeaves(t.Right)
		return l + r, lok && rok
	case *Project:
		return countLeaves(t.Input)
	}
	return 0, false
}

// ordScanCursor scans a partition view, remembering the base-relation
// ordinal of the tuple it last returned. The pipeline is synchronous
// and pull-based, so when an output tuple surfaces at the sink, the
// chain's driver ordScanCursor holds exactly the ordinal of the driver
// tuple that output derives from.
type ordScanCursor struct {
	sh      pdb.Shard
	i       int
	lastOrd int
}

func (c *ordScanCursor) next() (pdb.Tuple, bool) {
	if c.i >= len(c.sh.Ords) {
		return pdb.Tuple{}, false
	}
	ord := c.sh.Ords[c.i]
	c.i++
	c.lastOrd = ord
	return c.sh.Rel.Tups[ord], true
}

// partEntry is one pre-merge sink tuple of a partition: its lineage
// clause tagged with the driver ordinal that produced it.
type partEntry struct {
	ord int
	lin formula.Clause
}

// partGroup is one answer group as seen by a single partition. Entries
// are non-decreasing in ord (the chain streams in driver order).
type partGroup struct {
	vals    []pdb.Value
	entries []partEntry
}

// partOut is one partition's sink output, keyed like groupSink.
type partOut struct {
	groups map[string]*partGroup
}

// shardExec builds one partition's cursor chain. Leaf indexing follows
// the structural DFS (left before right) regardless of cursor
// construction order, so it matches the analyze/shardSpec numbering.
type shardExec struct {
	spec   *shardSpec
	views  map[int][]pdb.Shard
	part   int
	in     *formula.Interner
	driver *ordScanCursor
}

func (e *shardExec) build(n Node, base int) cursor {
	switch t := n.(type) {
	case *Scan:
		views, keyed := e.views[base]
		if !keyed {
			return &scanCursor{rel: t.Rel}
		}
		c := &ordScanCursor{sh: views[e.part]}
		if base == 0 {
			e.driver = c
		}
		return c
	case *Select:
		return &selectCursor{in: e.build(t.Input, base), pred: t.Pred}
	case *EquiJoin:
		l, _ := countLeaves(t.Left)
		right := e.build(t.Right, base+l)
		index := make(map[pdb.Value][]pdb.Tuple)
		for {
			rt, ok := right.next()
			if !ok {
				break
			}
			k := rt.Vals[t.RightCol]
			index[k] = append(index[k], rt)
		}
		return &hashJoinCursor{
			left: e.build(t.Left, base), index: index,
			lcol: t.LeftCol, on: t.On, in: e.in,
		}
	case *ThetaJoin:
		l, _ := countLeaves(t.Left)
		right := e.build(t.Right, base+l)
		var buf []pdb.Tuple
		for {
			rt, ok := right.next()
			if !ok {
				break
			}
			buf = append(buf, rt)
		}
		return &thetaJoinCursor{left: e.build(t.Left, base), right: buf, pred: thetaPred(t), in: e.in}
	case *Project:
		return &projectCursor{in: e.build(t.Input, base), cols: t.Cols}
	}
	// invariant: the planner only routes shardable subtrees (shardSpec
	// vets every node type) into the partition-parallel executor.
	panic(fmt.Sprintf("plan: unshardable node %T", n))
}

// shardedLineage runs root's lineage pipeline as spec.n partition
// chains on the pool and merges their outputs. It returns the answers —
// values, order, and normalized DNFs bitwise identical to
// lineageWithStats(root, in) — plus each answer's owning partition (the one
// that produced its first clause), which the batch conf() fan-out uses
// for partition-affinity scheduling, and the run's volumes. A non-nil
// tr receives per-partition chain stats; ctx scopes the runtime/trace
// regions around the chains and the merge ("repro.shard-chain",
// "repro.shard-merge") so `go tool trace` attributes the work.
func shardedLineage(ctx context.Context, root Node, spec *shardSpec, in *formula.Interner, pool *workpool.Pool, tr *obs.QueryTrace, inj *fault.Injector) ([]pdb.Answer, []int, lineageStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, ok := root.(*GroupLineage)
	if !ok {
		g = &GroupLineage{Input: root}
	}
	if in == nil {
		in = formula.NewInterner()
	}
	// Partition every keyed leaf once, up front; the chains share the
	// views read-only.
	views := make(map[int][]pdb.Shard, len(spec.keys))
	collectShardViews(g.Input, 0, spec, views)

	parts := make([]partOut, spec.n)
	tasks := make([]func(), spec.n)
	for p := range tasks {
		tasks[p] = func() {
			defer rtrace.StartRegion(ctx, "repro.shard-chain").End()
			ex := &shardExec{spec: spec, views: views, part: p, in: formula.NewInterner()}
			cur := ex.build(g.Input, 0)
			parts[p] = drainPartition(cur, ex.driver, g.Cols)
		}
	}
	pool.Run(tasks...)
	var st lineageStats
	for p := range parts {
		var entries int64
		for _, grp := range parts[p].groups {
			entries += int64(len(grp.entries))
		}
		tr.AddPartition(p, int64(len(parts[p].groups)), entries)
		st.tuples += entries
	}
	region := rtrace.StartRegion(ctx, "repro.shard-merge")
	// Chaos site: the merge has no error return — a fault here panics
	// and is contained by lineageSafe, failing the query alone.
	inj.FirePanic(fault.SiteShardMerge)
	answers, owner := mergeParts(parts, g.Cols, in)
	region.End()
	st.answers = int64(len(answers))
	for _, a := range answers {
		st.clauses += int64(len(a.Lin))
	}
	return answers, owner, st
}

// collectShardViews walks the tree in structural DFS order building the
// pdb.Shards views for every keyed leaf.
func collectShardViews(n Node, base int, spec *shardSpec, views map[int][]pdb.Shard) {
	switch t := n.(type) {
	case *Scan:
		if col, keyed := spec.keys[base]; keyed {
			views[base] = t.Rel.Shards(spec.n, col)
		}
	case *Select:
		collectShardViews(t.Input, base, spec, views)
	case *EquiJoin:
		l, _ := countLeaves(t.Left)
		collectShardViews(t.Left, base, spec, views)
		collectShardViews(t.Right, base+l, spec, views)
	case *ThetaJoin:
		l, _ := countLeaves(t.Left)
		collectShardViews(t.Left, base, spec, views)
		collectShardViews(t.Right, base+l, spec, views)
	case *Project:
		collectShardViews(t.Input, base, spec, views)
	}
}

// drainPartition is groupSink for one partition chain: it groups like
// the unsharded sink but keeps each clause tagged with its driver
// ordinal instead of normalizing, so the merge can interleave
// partitions back into unsharded stream order. An empty cols slice is
// the Boolean query (one group, empty key).
func drainPartition(cur cursor, driver *ordScanCursor, cols []int) partOut {
	out := partOut{groups: make(map[string]*partGroup)}
	var keyBuf strings.Builder
	for {
		t, ok := cur.next()
		if !ok {
			break
		}
		keyBuf.Reset()
		var vals []pdb.Value
		if len(cols) > 0 {
			vals = make([]pdb.Value, len(cols))
			for i, c := range cols {
				vals[i] = t.Vals[c]
				pdb.WriteValueKey(&keyBuf, t.Vals[c])
			}
		}
		k := keyBuf.String()
		grp, ok := out.groups[k]
		if !ok {
			grp = &partGroup{vals: vals}
			out.groups[k] = grp
		}
		grp.entries = append(grp.entries, partEntry{ord: driver.lastOrd, lin: t.Lin})
	}
	return out
}

// mergeParts interleaves the partitions' per-group clause lists by
// driver ordinal — partitions hold disjoint driver ordinals and each
// list is already ordinal-sorted, so the merge reconstructs exactly the
// clause sequence the unsharded sink saw — then normalizes and
// re-interns each answer DNF into the session interner. Group order is
// the sorted key order of groupSink. The second result is each
// answer's owning partition: the one contributing its first clause.
func mergeParts(parts []partOut, cols []int, in *formula.Interner) ([]pdb.Answer, []int) {
	keys := make([]string, 0)
	seen := make(map[string]bool)
	for p := range parts {
		for k := range parts[p].groups {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	sort.Strings(keys)
	answers := make([]pdb.Answer, 0, len(keys))
	owner := make([]int, 0, len(keys))
	heads := make([]int, len(parts))
	groups := make([]*partGroup, len(parts))
	for _, k := range keys {
		var vals []pdb.Value
		total, contributors, own := 0, 0, -1
		for p := range parts {
			heads[p] = 0
			groups[p] = parts[p].groups[k]
			if grp := groups[p]; grp != nil {
				total += len(grp.entries)
				vals = grp.vals
				contributors++
				own = p
			}
		}
		d := make(formula.DNF, 0, total)
		if contributors == 1 {
			// Partitioning on the group key sends a whole group to one
			// chain — its entry list is already in stream order.
			for _, e := range groups[own].entries {
				d = append(d, e.lin)
			}
		} else {
			own = -1
			for len(d) < total {
				best, bestOrd := -1, 0
				for p, grp := range groups {
					if grp == nil || heads[p] >= len(grp.entries) {
						continue
					}
					if ord := grp.entries[heads[p]].ord; best < 0 || ord < bestOrd {
						best, bestOrd = p, ord
					}
				}
				d = append(d, groups[best].entries[heads[best]].lin)
				heads[best]++
				if own < 0 {
					own = best
				}
			}
		}
		answers = append(answers, pdb.Answer{Vals: vals, Lin: in.InternDNF(d.Normalize())})
		owner = append(owner, own)
	}
	return answers, owner
}
