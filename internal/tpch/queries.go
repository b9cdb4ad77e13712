package tpch

import "repro/internal/pdb"

// Column indices (fixed by Generate's schemas).
const (
	lOrderkey = iota
	lPartkey
	lSuppkey
	lQuantity
	lDiscount
	lShipdate
	lCommitdate
	lReceiptdate
	lReturnflag
	lLinestatus
)

const (
	pPartkey = iota
	pSize
	pBrand
	pContainer
	pType
)

const (
	psPartkey = iota
	psSuppkey
	psAvailqty
)

// everyKth thins r down to at most target tuples, deterministically.
func everyKth(r *pdb.Relation, target int) *pdb.Relation {
	if target <= 0 || r.Len() <= target {
		return r
	}
	k := (r.Len() + target - 1) / target
	out := &pdb.Relation{Name: r.Name, Cols: r.Cols}
	for i := 0; i < r.Len(); i += k {
		out.Tups = append(out.Tups, r.Tups[i])
	}
	return out
}

// iqLevels returns the three thinned relations the IQ queries compare:
// part (p_size), lineitem (l_quantity) and partsupp (ps_availqty).
func (db *DB) iqLevels(nE, nD, nC int) (parts, lis, pss *pdb.Relation) {
	parts = everyKth(db.Part, nE)
	lis = everyKth(db.Lineitem, nD)
	pss = everyKth(db.PartSupp, nC)
	return
}

// CommonNationKey returns the nation key with the most suppliers, so
// nation-filtered queries (B20, B21) select a non-empty supplier set at
// any scale factor.
func (db *DB) CommonNationKey() pdb.Value {
	counts := map[pdb.Value]int{}
	for _, t := range db.Supplier.Tups {
		counts[t.Vals[1]]++
	}
	best, bestN := pdb.Value(0), -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}
