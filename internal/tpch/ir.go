package tpch

import (
	"repro/internal/pdb"
	"repro/internal/plan"
)

// Every TPC-H workload query is declared exactly once, as a logical
// plan (plan.Node). plan.Lineage materializes a query's lineage DNFs
// with the pipelined runtime; the planner (plan.Compile) routes it to
// its cheapest algorithm instead — the six hierarchical queries compile
// to extensional safe plans, the three IQ queries to inequality sorted
// scans, and the four hard queries fall through to lineage + d-tree
// evaluation.

func scan(r *pdb.Relation) plan.Node { return &plan.Scan{Rel: r} }

func sel(n plan.Node, pred func([]pdb.Value) bool) plan.Node {
	return &plan.Select{Input: n, Pred: pred}
}

func equi(l, r plan.Node, lcol, rcol int) plan.Node {
	return &plan.EquiJoin{Left: l, Right: r, LeftCol: lcol, RightCol: rcol}
}

func boolean(n plan.Node) plan.Node { return &plan.GroupLineage{Input: n} }

func group(n plan.Node, cols ...int) plan.Node {
	return &plan.GroupLineage{Input: n, Cols: cols}
}

// ---------------------------------------------------------------------
// Tractable (hierarchical) queries — Figure 6(a)/(b).
// The paper's six queries are selections on lineitem and two-table
// joins; the concrete predicates are substitutions with TPC-H-typical
// selectivities.
// ---------------------------------------------------------------------

// Q1IR is the grouped selection on lineitem (TPC-H Q1 without
// aggregations): tuples with l_shipdate ≤ cutoff grouped by
// (l_returnflag, l_linestatus). Each answer's lineage is a set of
// independent single-variable clauses.
func (db *DB) Q1IR(cutoff pdb.Value) plan.Node {
	return group(
		sel(scan(db.Lineitem), func(v []pdb.Value) bool { return v[lShipdate] <= cutoff }),
		lReturnflag, lLinestatus)
}

// B1IR is the Boolean version of Q1: does any lineitem ship by cutoff?
func (db *DB) B1IR(cutoff pdb.Value) plan.Node {
	return boolean(
		sel(scan(db.Lineitem), func(v []pdb.Value) bool { return v[lShipdate] <= cutoff }))
}

// B6IR is the Boolean TPC-H Q6 selection: a shipdate window, a discount
// band and a quantity cap on lineitem.
func (db *DB) B6IR(dateLo, dateHi, discLo, discHi, qtyMax pdb.Value) plan.Node {
	return boolean(
		sel(scan(db.Lineitem), func(v []pdb.Value) bool {
			return v[lShipdate] >= dateLo && v[lShipdate] < dateHi &&
				v[lDiscount] >= discLo && v[lDiscount] <= discHi &&
				v[lQuantity] < qtyMax
		}))
}

// Q15IR joins supplier with a shipdate-windowed lineitem on suppkey and
// groups by supplier (TPC-H Q15's revenue view without the aggregate).
// Hierarchical: q(sk) :- supplier(sk), lineitem(sk, ...).
func (db *DB) Q15IR(dateLo, dateHi pdb.Value) plan.Node {
	li := sel(scan(db.Lineitem), func(v []pdb.Value) bool {
		return v[lShipdate] >= dateLo && v[lShipdate] < dateHi
	})
	return group(equi(scan(db.Supplier), li, 0 /* s_suppkey */, lSuppkey), 0)
}

// B16IR is the Boolean part–partsupp join of TPC-H Q16: suppliers
// offering a part that is not of the given brand and at least the given
// size.
func (db *DB) B16IR(notBrand, minSize pdb.Value) plan.Node {
	parts := sel(scan(db.Part), func(v []pdb.Value) bool {
		return v[pBrand] != notBrand && v[pSize] >= minSize
	})
	return boolean(equi(parts, scan(db.PartSupp), pPartkey, psPartkey))
}

// B17IR is the Boolean part–lineitem join of TPC-H Q17: is any lineitem
// for a part of the given brand and container shipped?
func (db *DB) B17IR(brand, container pdb.Value) plan.Node {
	parts := sel(scan(db.Part), func(v []pdb.Value) bool {
		return v[pBrand] == brand && v[pContainer] == container
	})
	return boolean(equi(parts, scan(db.Lineitem), pPartkey, lPartkey))
}

// ---------------------------------------------------------------------
// IQ queries (inequality joins) — Figure 6(c).
// The three queries instantiate the tractable IQ patterns of
// Definition 6.6: a pair X<Y, a star E<D ∧ E<C, and a chain E<D<H.
// Each level is capped to a target cardinality (every-kth selection,
// see iqLevels) so lineage sizes stay in the paper's reported regime
// (~10^4 clauses) independently of SF; the paper achieved this with
// equality selections.
// ---------------------------------------------------------------------

// IQB1IR is the pair pattern q() :- part(E), lineitem(D), E < D over
// p_size and l_quantity. The lineage has one clause per qualifying
// (part, lineitem) pair.
func (db *DB) IQB1IR(nE, nD int) plan.Node {
	parts, lis, _ := db.iqLevels(nE, nD, 0)
	return boolean(&plan.ThetaJoin{
		Left: scan(parts), Right: scan(lis),
		Less: &plan.Less{LeftCol: pSize, RightCol: lQuantity},
	})
}

// IQB4IR is the star pattern q() :- part(E), lineitem(D), partsupp(C),
// E < D, E < C (max-one property over {p_size}).
func (db *DB) IQB4IR(nE, nD, nC int) plan.Node {
	parts, lis, pss := db.iqLevels(nE, nD, nC)
	j := &plan.ThetaJoin{
		Left: scan(parts), Right: scan(lis),
		Less: &plan.Less{LeftCol: pSize, RightCol: lQuantity},
	}
	return boolean(&plan.ThetaJoin{
		Left: j, Right: scan(pss),
		Less: &plan.Less{LeftCol: pSize, RightCol: psAvailqty},
	})
}

// IQ6IR is the chain pattern q() :- part(E), lineitem(D), partsupp(H),
// E < D < H over p_size, l_quantity and ps_availqty.
func (db *DB) IQ6IR(nE, nD, nC int) plan.Node {
	parts, lis, pss := db.iqLevels(nE, nD, nC)
	j := &plan.ThetaJoin{
		Left: scan(parts), Right: scan(lis),
		Less: &plan.Less{LeftCol: pSize, RightCol: lQuantity},
	}
	qtyCol := len(parts.Cols) + lQuantity
	return boolean(&plan.ThetaJoin{
		Left: j, Right: scan(pss),
		Less: &plan.Less{LeftCol: qtyCol, RightCol: psAvailqty},
	})
}

// ---------------------------------------------------------------------
// Hard queries — Figure 7. Multi-way joins whose lineage instantiates
// the #P-hard R–S–T sharing pattern.
// ---------------------------------------------------------------------

// B2IR joins part, partsupp, supplier, nation and region: is some part
// of the given size supplied from the given region? (TPC-H Q2 skeleton.)
func (db *DB) B2IR(size, regionkey pdb.Value) plan.Node {
	parts := sel(scan(db.Part), func(v []pdb.Value) bool { return v[pSize] == size })
	nations := sel(scan(db.Nation), func(v []pdb.Value) bool { return v[1] == regionkey })
	regions := sel(scan(db.Region), func(v []pdb.Value) bool { return v[0] == regionkey })

	nPart := len(db.Part.Cols)
	nPS := len(db.PartSupp.Cols)
	nSupp := len(db.Supplier.Cols)
	ps := equi(parts, scan(db.PartSupp), pPartkey, psPartkey)
	pss := equi(ps, scan(db.Supplier), nPart+psSuppkey, 0)
	sn := equi(pss, nations, nPart+nPS+1 /* s_nationkey */, 0)
	all := equi(sn, regions, nPart+nPS+nSupp+1 /* n_regionkey */, 0)
	return boolean(all)
}

// B9IR joins part, lineitem, partsupp, supplier, orders and nation: the
// profit-query skeleton of TPC-H Q9 over parts of a type class. The
// partsupp join is on (partkey, suppkey); the suppkey half is a
// residual predicate, which alone forces the lineage route — fitting,
// as the query is #P-hard regardless.
func (db *DB) B9IR(typeMax pdb.Value) plan.Node {
	parts := sel(scan(db.Part), func(v []pdb.Value) bool { return v[pType] < typeMax })
	nPart := len(db.Part.Cols)
	nLine := len(db.Lineitem.Cols)
	nPS := len(db.PartSupp.Cols)
	nSupp := len(db.Supplier.Cols)
	liSupp := nPart + lSuppkey
	j := equi(parts, scan(db.Lineitem), pPartkey, lPartkey)
	j2 := &plan.EquiJoin{
		Left: j, Right: scan(db.PartSupp),
		LeftCol: pPartkey, RightCol: psPartkey,
		On: func(l, r []pdb.Value) bool { return l[liSupp] == r[psSuppkey] },
	}
	j3 := equi(j2, scan(db.Supplier), liSupp, 0)
	j4 := equi(j3, scan(db.Orders), nPart+lOrderkey, 0)
	sNation := nPart + nLine + nPS + nSupp - 1 // s_nationkey is supplier's last column
	j5 := equi(j4, scan(db.Nation), sNation, 0)
	return boolean(j5)
}

// B20IR joins supplier, nation, partsupp and part: does a supplier of
// the given nation stock a sizeable quantity of a brand's part? (TPC-H
// Q20 skeleton.) The equality selection on nation leaves one nation
// variable in the whole lineage — the behaviour the paper highlights.
func (db *DB) B20IR(nationkey, brand, minAvail pdb.Value) plan.Node {
	nations := sel(scan(db.Nation), func(v []pdb.Value) bool { return v[0] == nationkey })
	sn := equi(scan(db.Supplier), nations, 1 /* s_nationkey */, 0)
	ps := sel(scan(db.PartSupp), func(v []pdb.Value) bool { return v[psAvailqty] > minAvail })
	nSN := len(db.Supplier.Cols) + len(db.Nation.Cols)
	j := equi(sn, ps, 0 /* s_suppkey */, psSuppkey)
	parts := sel(scan(db.Part), func(v []pdb.Value) bool { return v[pBrand] == brand })
	j2 := equi(j, parts, nSN+psPartkey, pPartkey)
	return boolean(j2)
}

// B21IR joins supplier, lineitem, orders and nation: late deliveries
// (l_receiptdate > l_commitdate) by suppliers of one nation (TPC-H Q21
// skeleton).
func (db *DB) B21IR(nationkey pdb.Value) plan.Node {
	nations := sel(scan(db.Nation), func(v []pdb.Value) bool { return v[0] == nationkey })
	sn := equi(scan(db.Supplier), nations, 1, 0)
	late := sel(scan(db.Lineitem), func(v []pdb.Value) bool {
		return v[lReceiptdate] > v[lCommitdate]
	})
	nSN := len(db.Supplier.Cols) + len(db.Nation.Cols)
	j := equi(sn, late, 0 /* s_suppkey */, lSuppkey)
	j2 := equi(j, scan(db.Orders), nSN+lOrderkey, 0)
	return boolean(j2)
}

// Class buckets the catalog queries by the paper's taxonomy.
type Class string

const (
	// ClassHierarchical queries have exact extensional safe plans.
	ClassHierarchical Class = "hierarchical"
	// ClassIQ queries are tractable inequality-join queries.
	ClassIQ Class = "iq"
	// ClassHard queries are #P-hard and need lineage + d-trees.
	ClassHard Class = "hard"
)

// CatalogEntry is one workload query with its paper taxonomy class.
type CatalogEntry struct {
	Name  string
	Class Class
	Node  plan.Node
}

// Catalog returns the full query suite at canonical parameters (the
// figure defaults), declared as IR — the input for routing tests,
// benchmarks and EXPLAIN-style tables.
func (db *DB) Catalog() []CatalogEntry {
	nat := db.CommonNationKey()
	return []CatalogEntry{
		{"Q1", ClassHierarchical, db.Q1IR(MaxDate * 3 / 4)},
		{"B1", ClassHierarchical, db.B1IR(MaxDate / 2)},
		{"B6", ClassHierarchical, db.B6IR(300, 1200, 2, 6, 30)},
		{"Q15", ClassHierarchical, db.Q15IR(0, MaxDate/3)},
		{"B16", ClassHierarchical, db.B16IR(5, 25)},
		{"B17", ClassHierarchical, db.B17IR(3, 7)},
		{"IQB1", ClassIQ, db.IQB1IR(60, 200)},
		{"IQB4", ClassIQ, db.IQB4IR(20, 40, 40)},
		{"IQ6", ClassIQ, db.IQ6IR(20, 40, 40)},
		{"B2", ClassHard, db.B2IR(15, 1)},
		{"B9", ClassHard, db.B9IR(10)},
		{"B20", ClassHard, db.B20IR(nat, 3, 50)},
		{"B21", ClassHard, db.B21IR(nat)},
	}
}

// Query returns the catalog query called name (e.g. "B17", "IQ6") at
// its canonical parameters, or nil when the catalog holds no such query.
func (db *DB) Query(name string) plan.Node {
	for _, e := range db.Catalog() {
		if e.Name == name {
			return e.Node
		}
	}
	return nil
}
