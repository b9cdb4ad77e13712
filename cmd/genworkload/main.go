// Command genworkload emits workload lineage DNFs in the dnftext format
// consumed by cmd/dtree, so the paper's instances can be inspected,
// shared, and re-run standalone.
//
// Usage:
//
//	genworkload -w karate-triangle            > karate_t.dnf
//	genworkload -w clique-triangle -n 10 -p 0.3
//	genworkload -w tpch-b21 -sf 0.001
//	genworkload -w tpch-iq6 -sf 0.001
//	genworkload -w skew-join -rows 20000 -skew 1.2
//
// Workloads: karate-triangle, karate-p2, karate-s2 (the separation of
// the network's two hubs, Fig. 9's s2), dolphins-triangle,
// clique-triangle, clique-p2, tpch-<query> for every TPC-H catalog query
// in lower case (tpch-q1, tpch-b17, tpch-iqb1, tpch-b21, …; a grouped
// query exports its first answer's lineage), and skew-join (a
// Zipf-keyed fact ⋈ dim join whose answer groups are imbalanced in
// lineage size; -skew 1 makes the keys uniform for comparison).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dnftext"
	"repro/internal/formula"
	"repro/internal/graphs"
	"repro/internal/plan"
	"repro/internal/tpch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "genworkload:", err)
		os.Exit(1)
	}
}

// run parses the command line args and writes the chosen workload's DNF
// to w.
func run(args []string, w io.Writer) error {
	flags := flag.NewFlagSet("genworkload", flag.ExitOnError)
	workload := flags.String("w", "karate-triangle", "workload name")
	n := flags.Int("n", 10, "clique size for clique-* workloads")
	p := flags.Float64("p", 0.3, "edge probability for clique-* workloads")
	sf := flags.Float64("sf", 0.001, "scale factor for tpch-* workloads")
	rows := flags.Int("rows", 20000, "fact rows for the skew-join workload")
	skew := flags.Float64("skew", 1.2, "Zipf exponent for skew-join keys (≤1 = uniform)")
	seed := flags.Int64("seed", 42, "generator seed")
	flags.Parse(args)

	var (
		s *formula.Space
		d formula.DNF
		// node, for the relational workloads, is the Boolean query whose
		// lineage is exported.
		node plan.Node
	)
	switch *workload {
	case "karate-triangle":
		g := graphs.Karate(*seed)
		s, d = g.Space(), g.TriangleDNF()
	case "karate-p2":
		g := graphs.Karate(*seed)
		s, d = g.Space(), g.PathDNF(2)
	case "karate-s2":
		g := graphs.Karate(*seed)
		s, d = g.Space(), g.SeparationDNF(g.Hubs())
	case "dolphins-triangle":
		g := graphs.Dolphins(*seed)
		s, d = g.Space(), g.TriangleDNF()
	case "clique-triangle":
		g := graphs.Complete(*n, *p)
		s, d = g.Space(), g.TriangleDNF()
	case "clique-p2":
		g := graphs.Complete(*n, *p)
		s, d = g.Space(), g.PathDNF(2)
	case "skew-join":
		db := tpch.GenerateSkewed(*rows, max(*rows/50, 1), *skew, *seed)
		s, node = db.Space, db.BooleanIR()
	default:
		if name, ok := strings.CutPrefix(*workload, "tpch-"); ok {
			db := tpch.Generate(tpch.Config{SF: *sf, ProbHigh: 1, Seed: *seed})
			s, node = db.Space, db.Query(strings.ToUpper(name))
		}
		if node == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
	}
	if node != nil {
		if answers := plan.Lineage(node); len(answers) > 0 {
			d = answers[0].Lin
		}
	}
	if len(d) == 0 {
		return errors.New("workload produced an empty DNF at this scale")
	}
	return dnftext.Write(w, s, d)
}
