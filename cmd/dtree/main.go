// Command dtree computes exact or approximate probabilities of DNF
// formulas over discrete random variables through the unified
// confidence engine.
//
// Usage:
//
//	dtree [-eps 0.01] [-relative] [-stats]
//	      [-metrics] [-timeout 0] [-max-nodes 0] [-mc] [file]
//
// The input (a file argument or stdin) uses the dnftext format:
//
//	var x 0.3
//	var v 0.2 0.3 0.5
//	clause x v=2
//
// With -eps 0 the exact probability is printed, computed by
// the d-tree compiler (core.Refiner) run until no leaf is open;
// otherwise an ε-approximation with the chosen error semantics,
// computed by refining the open leaf of the materialized d-tree whose
// interval can move the root's the most. Either runs on one goroutine.
// -timeout is a deadline on the evaluation's context; -max-nodes bounds
// the d-tree. -mc additionally runs the Karp-Luby/DKLR baseline for
// comparison. -metrics attaches an observability registry to the
// evaluation and prints its budget counter afterwards.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dnftext"
	"repro/internal/engine"
	"repro/internal/obs"
)

func main() {
	eps := flag.Float64("eps", 0.01, "allowed error (0 = exact)")
	relative := flag.Bool("relative", false, "use relative (multiplicative) error instead of absolute")
	stats := flag.Bool("stats", false, "print d-tree statistics")
	metrics := flag.Bool("metrics", false, "print engine metrics (budget exhaustions)")
	timeout := flag.Duration("timeout", 0, "wall-clock evaluation budget (0 = none)")
	maxNodes := flag.Int("max-nodes", 0, "d-tree node budget (0 = unlimited)")
	runMC := flag.Bool("mc", false, "also run the Karp-Luby/DKLR baseline (aconf)")
	delta := flag.Float64("delta", 0.0001, "failure probability for -mc")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	s, d, err := dnftext.Parse(in)
	if err != nil {
		fatal(err)
	}
	if len(d) == 0 {
		fmt.Println("P = 0 (empty DNF)")
		return
	}

	ev := engine.Approx{Eps: *eps, Kind: engine.Absolute, MaxNodes: *maxNodes}
	if *relative {
		ev.Kind = engine.Relative
	}
	var reg *obs.Metrics
	if *metrics {
		reg = obs.NewMetrics()
		ev.Metrics = reg
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := ev.Evaluate(ctx, s, d)
	elapsed := time.Since(start)
	if err != nil {
		// Timeouts and budget exhaustion still carry the bounds reached
		// so far; surface them before failing.
		fmt.Fprintf(os.Stderr, "dtree: %v (bounds reached: [%.10g, %.10g], %d nodes, %v)\n",
			err, res.Lo, res.Hi, res.Nodes, elapsed)
		os.Exit(1)
	}
	if res.Exact {
		fmt.Printf("P = %.10g (exact, %v)\n", res.Estimate, elapsed)
	} else {
		fmt.Printf("P ≈ %.10g (±%g %s, bounds [%.10g, %.10g], %v)\n",
			res.Estimate, ev.Eps, ev.Kind, res.Lo, res.Hi, elapsed)
	}
	if *stats {
		fmt.Printf("clauses=%d vars=%d nodes=%d early-stop=%v\n",
			len(d), len(d.Vars()), res.Nodes, res.EarlyStop)
	}
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("metrics: budget exhausted=%d\n", snap.BudgetExhausted)
	}
	if *runMC {
		epsMC := ev.Eps
		if epsMC == 0 {
			epsMC = 0.01
		}
		start = time.Now()
		r, err := engine.MonteCarlo{
			Eps: epsMC, Delta: *delta,
			Budget: engine.Budget{Timeout: *timeout}, Seed: 1,
		}.Evaluate(context.Background(), s, d)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("aconf ≈ %.10g (ε=%g δ=%g, %d samples, %v)\n",
			r.Estimate, epsMC, *delta, r.Samples, time.Since(start))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtree:", err)
	os.Exit(1)
}
