package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tpch"
)

func TestFig6aShape(t *testing.T) {
	tab := Figure("fig6a", Smoke())
	if len(tab.Rows) != 6 {
		t.Fatalf("fig6a has %d rows, want 6 queries", len(tab.Rows))
	}
	names := []string{"1", "15", "B1", "B6", "B16", "B17"}
	for i, r := range tab.Rows {
		if r[0] != names[i] {
			t.Fatalf("row %d is %q, want %q", i, r[0], names[i])
		}
		if len(r) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(r), len(tab.Header))
		}
	}
	for _, r := range tab.Rows {
		for j, c := range r {
			if c == "" {
				t.Fatalf("empty cell %d in row %v", j, r)
			}
		}
	}
}

func TestFig6bRuns(t *testing.T) {
	tab := Figure("6b", Smoke())
	if len(tab.Rows) != 6 {
		t.Fatalf("fig6b rows %d", len(tab.Rows))
	}
}

func TestFig6cRuns(t *testing.T) {
	tab := Figure("fig6c", Smoke())
	if len(tab.Rows) != 3 {
		t.Fatalf("fig6c rows %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "IQ B1" || tab.Rows[2][0] != "IQ 6" {
		t.Fatalf("unexpected query order: %v", tab.Rows)
	}
}

func TestFig7Runs(t *testing.T) {
	p := Smoke()
	p.SFs = []float64{0.0005, 0.001}
	// A B9 d-tree cell that runs out of budget costs the whole budget:
	// a quarter of the smoke budget keeps this run's time down.
	p.DtreeMaxNodes /= 4
	tab := Figure("fig7", p)
	if len(tab.Rows) != 8 {
		t.Fatalf("fig7 rows %d, want 4 queries × 2 SFs", len(tab.Rows))
	}
}

// TestFig7B9Nodes pins the d-tree cells of Fig. 7's B9 at SF 0.0005
// under the figure's own budgets. The Refiner converges in 1 653 nodes
// at relative 0.05 and 6 800 at 0.01. The depth-first exploration with
// leaf closing that ran before it built 232 758 nodes at 0.05 and did
// not converge at 0.01 (331 793 nodes).
func TestFig7B9Nodes(t *testing.T) {
	p := Small()
	p.SFs = []float64{0.0005}
	want := map[string]int{"d-tree(.05)": 1653, "d-tree(.01)": 6800}
	for _, r := range Scenarios(p, "fig7") {
		if r.Labels[0] != "B9" {
			continue
		}
		for j, c := range r.Cols {
			if nodes, ok := want[c.Name]; ok {
				if got := r.Run(j); !got.Converged || got.Work != nodes {
					t.Errorf("%s: converged=%v after %d nodes, want %d", c.Name, got.Converged, got.Work, nodes)
				}
				delete(want, c.Name)
			}
		}
	}
	if len(want) > 0 {
		t.Fatalf("columns %v missing from Fig. 7's B9 row", want)
	}
}

// TestHierarchicalCatalogHasNoShannon is Proposition 6.3 on the
// catalog: hierarchical lineage is 1OF-factorizable, so the complete
// d-tree of every answer of Fig. 6(a)/(b)'s six hierarchical queries
// has no ⊕ node, at the smoke and at the default scale factor.
func TestHierarchicalCatalogHasNoShannon(t *testing.T) {
	for _, p := range []Params{Smoke(), Small()} {
		for _, r := range Scenarios(p, "fig6a", "fig6b") {
			for i, d := range r.DNFs {
				_, sh, err := core.ExactShape(context.Background(), r.Space, d, core.Options{})
				if err != nil {
					t.Fatalf("%s %s SF %g answer %d: %v", r.Fig, r.Labels[0], p.SF, i, err)
				}
				if sh[core.ExclOr] != 0 {
					t.Errorf("%s %s SF %g answer %d: %d ⊕ nodes", r.Fig, r.Labels[0], p.SF, i, sh[core.ExclOr])
				}
			}
		}
	}
}

func TestFig8Runs(t *testing.T) {
	tab := Figure("fig8", Smoke())
	if len(tab.Rows) != 8 {
		t.Fatalf("fig8 rows %d, want 2 queries × 2 sizes × 2 probs", len(tab.Rows))
	}
}

func TestFig8cRuns(t *testing.T) {
	tab := Figure("fig8c", Smoke())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig8c rows %d", len(tab.Rows))
	}
}

func TestFig9Runs(t *testing.T) {
	tab := Figure("fig9", Smoke())
	if len(tab.Rows) != 8 {
		t.Fatalf("fig9 rows %d, want 2 networks × 4 queries × 1 error", len(tab.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"longer", "cell"}},
		Notes:  []string{"a note"},
	}
	var text, md strings.Builder
	tab.WriteText(&text)
	tab.WriteMarkdown(&md)
	if !strings.Contains(text.String(), "demo") || !strings.Contains(text.String(), "longer") {
		t.Fatalf("text output:\n%s", text.String())
	}
	if !strings.Contains(md.String(), "| a | b |") || !strings.Contains(md.String(), "_a note_") {
		t.Fatalf("markdown output:\n%s", md.String())
	}
}

func TestMsFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0.5, "0.50ms"},
		{42, "42.0ms"},
		{2500, "2.50s"},
	}
	for _, tc := range cases {
		if got := ms(tc.in); got != tc.want {
			t.Fatalf("ms(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	for _, p := range []Params{Small(), Smoke()} {
		if p.SF == 0 || p.Seed == 0 || p.DtreeMaxNodes == 0 || p.AconfMaxSample == 0 || p.Delta == 0 ||
			len(p.SFs) == 0 || len(p.Cliques) == 0 || len(p.SmallPCliques) == 0 || len(p.Errors) == 0 {
			t.Fatalf("parameter set has an unset field: %+v", p)
		}
	}
}

func TestNodeStatsRuns(t *testing.T) {
	tab := Figure("stats", Smoke())
	if len(tab.Rows) != 6 {
		t.Fatalf("stats rows %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, header %d", r, len(r), len(tab.Header))
		}
	}
}

func TestRankTopKFigureRuns(t *testing.T) {
	tab := Figure("topk", Smoke())
	if len(tab.Rows) < 6 {
		t.Fatalf("topk rows %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, header %d", r, len(r), len(tab.Header))
		}
		for _, cell := range r {
			if strings.HasPrefix(cell, "ERR") {
				t.Fatalf("row %v reports an error", r)
			}
		}
	}
}

func TestRouteTableCoversCatalog(t *testing.T) {
	p := Smoke()
	tab := Figure("route", p)
	catalog := tpch.Generate(tpch.Config{SF: p.SF, ProbHigh: 1, Seed: p.Seed}).Catalog()
	if len(tab.Rows) != len(catalog) {
		t.Fatalf("route table has %d rows, catalog %d queries", len(tab.Rows), len(catalog))
	}
	want := map[tpch.Class]string{tpch.ClassHierarchical: "safe", tpch.ClassIQ: "iq", tpch.ClassHard: "d-tree"}
	for i, r := range tab.Rows {
		e := catalog[i]
		if r[0] != e.Name || r[1] != string(e.Class) || r[2] != want[e.Class] {
			t.Errorf("row %v, want %s (%s) routed %s", r, e.Name, e.Class, want[e.Class])
		}
	}
}

func TestObsTableRuns(t *testing.T) {
	tab := Figure("obs", Smoke())
	rows := map[string]string{}
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[1], "ERR") {
			t.Fatalf("row %v reports an error", r)
		}
		rows[r[0]] = r[1]
	}
	if rows["route"] != "d-tree" {
		t.Fatalf("route %q, want d-tree", rows["route"])
	}
	if _, ok := rows["rank"]; !ok {
		t.Fatalf("no rank row in %v", tab.Rows)
	}
}
