// Package tpch implements the TPC-H experiment substrate of Section
// VII-A: a deterministic generator of tuple-independent probabilistic
// TPC-H tables (a stand-in for the paper's modified dbgen), the
// modified-TPC-H query suite — six tractable (hierarchical) queries,
// three tractable inequality (IQ) queries, and four #P-hard queries —
// each declared once as plan IR. The tractable ones' SPROUT baseline is
// the planner's safe and IQ routes over that IR.
package tpch

import (
	"math/rand"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// Relation tags (drive ⊙ factorization and the IQ variable order).
const (
	TagRegion int32 = iota
	TagNation
	TagSupplier
	TagCustomer
	TagPart
	TagPartSupp
	TagOrders
	TagLineitem
)

// Config controls generation.
type Config struct {
	// SF is the TPC-H scale factor. Table cardinalities are the TPC-H
	// proportions scaled by SF (lineitem ≈ 6M·SF rows).
	SF float64
	// ProbHigh is the upper bound of the uniform tuple-probability
	// distribution: 1.0 reproduces "probabilities in (0,1)", 0.01
	// reproduces "(0,0.01)" (Figure 6(a) vs 6(b)).
	ProbHigh float64
	// Seed makes generation deterministic.
	Seed int64
}

// MaxDate is the date range: 7 years of days, as integer day numbers.
const MaxDate = 2557

const maxDate = MaxDate

// DB is a generated tuple-independent probabilistic TPC-H database.
type DB struct {
	Space *formula.Space
	Cfg   Config

	Region   *pdb.Relation // r_regionkey
	Nation   *pdb.Relation // n_nationkey, n_regionkey
	Supplier *pdb.Relation // s_suppkey, s_nationkey
	Customer *pdb.Relation // c_custkey, c_nationkey
	Part     *pdb.Relation // p_partkey, p_size, p_brand, p_container, p_type
	PartSupp *pdb.Relation // ps_partkey, ps_suppkey, ps_availqty, ps_supplycost
	Orders   *pdb.Relation // o_orderkey, o_custkey, o_orderdate
	Lineitem *pdb.Relation // l_orderkey, l_partkey, l_suppkey, l_quantity,
	//                        l_discount, l_shipdate, l_commitdate,
	//                        l_receiptdate, l_returnflag, l_linestatus
}

// Relations returns the eight generated relations in schema order:
// what a repro.DB registers to serve the catalog's queries.
func (db *DB) Relations() []*pdb.Relation {
	return []*pdb.Relation{db.Region, db.Nation, db.Supplier, db.Customer,
		db.Part, db.PartSupp, db.Orders, db.Lineitem}
}

// scaled returns max(lo, round(base·sf)).
func scaled(base float64, sf float64, lo int) int {
	n := int(base*sf + 0.5)
	if n < lo {
		n = lo
	}
	return n
}

// Generate builds the database. Cardinalities follow the TPC-H
// proportions: supplier 10k·SF, part 200k·SF, partsupp 4 per part,
// customer 150k·SF, orders 10 per customer, lineitem 1–7 lines per
// order. Every table is tuple-independent with probabilities uniform in
// (0, ProbHigh).
func Generate(cfg Config) *DB {
	if cfg.ProbHigh <= 0 || cfg.ProbHigh > 1 {
		cfg.ProbHigh = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := formula.NewSpace()
	db := &DB{Space: s, Cfg: cfg}

	prob := func() float64 {
		// Uniform in (0, ProbHigh), bounded away from {0, 1} so the
		// atomic-event probabilities stay valid.
		p := rng.Float64() * cfg.ProbHigh
		if p < 1e-9 {
			p = 1e-9
		}
		if p > 1-1e-9 {
			p = 1 - 1e-9
		}
		return p
	}
	probs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = prob()
		}
		return out
	}

	nSupp := scaled(10_000, cfg.SF, 4)
	nPart := scaled(200_000, cfg.SF, 8)
	nCust := scaled(150_000, cfg.SF, 4)
	nOrders := nCust * 10

	// region, nation: the fixed TPC-H 5 regions / 25 nations.
	regionRows := make([][]pdb.Value, 5)
	for r := range regionRows {
		regionRows[r] = []pdb.Value{pdb.Value(r)}
	}
	db.Region = pdb.NewTupleIndependent(s, "region", []string{"r_regionkey"},
		regionRows, probs(5), TagRegion)

	nationRows := make([][]pdb.Value, 25)
	for n := range nationRows {
		nationRows[n] = []pdb.Value{pdb.Value(n), pdb.Value(n % 5)}
	}
	db.Nation = pdb.NewTupleIndependent(s, "nation",
		[]string{"n_nationkey", "n_regionkey"}, nationRows, probs(25), TagNation)

	suppRows := make([][]pdb.Value, nSupp)
	for i := range suppRows {
		suppRows[i] = []pdb.Value{pdb.Value(i), pdb.Value(rng.Intn(25))}
	}
	db.Supplier = pdb.NewTupleIndependent(s, "supplier",
		[]string{"s_suppkey", "s_nationkey"}, suppRows, probs(nSupp), TagSupplier)

	custRows := make([][]pdb.Value, nCust)
	for i := range custRows {
		custRows[i] = []pdb.Value{pdb.Value(i), pdb.Value(rng.Intn(25))}
	}
	db.Customer = pdb.NewTupleIndependent(s, "customer",
		[]string{"c_custkey", "c_nationkey"}, custRows, probs(nCust), TagCustomer)

	partRows := make([][]pdb.Value, nPart)
	for i := range partRows {
		partRows[i] = []pdb.Value{
			pdb.Value(i),
			pdb.Value(1 + rng.Intn(50)), // p_size
			pdb.Value(rng.Intn(25)),     // p_brand
			pdb.Value(rng.Intn(40)),     // p_container
			pdb.Value(rng.Intn(150)),    // p_type
		}
	}
	db.Part = pdb.NewTupleIndependent(s, "part",
		[]string{"p_partkey", "p_size", "p_brand", "p_container", "p_type"},
		partRows, probs(nPart), TagPart)

	// partsupp: each part supplied by 4 suppliers, TPC-H-style spread.
	psRows := make([][]pdb.Value, 0, nPart*4)
	step := nSupp/4 + 1
	for p := 0; p < nPart; p++ {
		for i := 0; i < 4; i++ {
			sk := (p + i*step) % nSupp
			psRows = append(psRows, []pdb.Value{
				pdb.Value(p), pdb.Value(sk),
				pdb.Value(1 + rng.Intn(100)),  // ps_availqty
				pdb.Value(1 + rng.Intn(1000)), // ps_supplycost
			})
		}
	}
	db.PartSupp = pdb.NewTupleIndependent(s, "partsupp",
		[]string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"},
		psRows, probs(len(psRows)), TagPartSupp)

	orderRows := make([][]pdb.Value, nOrders)
	orderDates := make([]int, nOrders)
	for i := range orderRows {
		orderDates[i] = rng.Intn(maxDate)
		orderRows[i] = []pdb.Value{
			pdb.Value(i), pdb.Value(rng.Intn(nCust)), pdb.Value(orderDates[i]),
		}
	}
	db.Orders = pdb.NewTupleIndependent(s, "orders",
		[]string{"o_orderkey", "o_custkey", "o_orderdate"},
		orderRows, probs(nOrders), TagOrders)

	var liRows [][]pdb.Value
	for o := 0; o < nOrders; o++ {
		lines := 1 + rng.Intn(7)
		for l := 0; l < lines; l++ {
			pk := rng.Intn(nPart)
			sk := (pk + rng.Intn(4)*step) % nSupp // one of the part's suppliers
			ship := orderDates[o] + 1 + rng.Intn(120)
			commit := orderDates[o] + 30 + rng.Intn(60)
			receipt := ship + 1 + rng.Intn(30)
			liRows = append(liRows, []pdb.Value{
				pdb.Value(o), pdb.Value(pk), pdb.Value(sk),
				pdb.Value(1 + rng.Intn(50)), // l_quantity
				pdb.Value(rng.Intn(11)),     // l_discount
				pdb.Value(ship), pdb.Value(commit), pdb.Value(receipt),
				pdb.Value(rng.Intn(3)), // l_returnflag
				pdb.Value(rng.Intn(2)), // l_linestatus
			})
		}
	}
	db.Lineitem = pdb.NewTupleIndependent(s, "lineitem",
		[]string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
			"l_discount", "l_shipdate", "l_commitdate", "l_receiptdate",
			"l_returnflag", "l_linestatus"},
		liRows, probs(len(liRows)), TagLineitem)

	return db
}
