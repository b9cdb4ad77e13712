package plan

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/formula"
	"repro/internal/pdb"
)

// drain collects a stream, separating the trailing error.
func drain(t *testing.T, p *Plan, ctx context.Context, s *formula.Space) ([]pdb.AnswerConf, error) {
	t.Helper()
	var out []pdb.AnswerConf
	for a, err := range p.StreamTraced(ctx, s, nil, nil, nil) {
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// TestPlannerStreamMatchesAnswers pins StreamTraced against Answers on every
// route: the same answer multiset, with order allowed to differ only on
// the ranked lineage route (proof order vs rank order).
func TestPlannerStreamMatchesAnswers(t *testing.T) {
	ctx := context.Background()

	s := formula.NewSpace()
	r, _ := tinyRelations(s)
	s2 := formula.NewSpace()
	correlated := correlatedRelation(s2)

	cases := []struct {
		name    string
		space   *formula.Space
		root    Node
		ordered bool
	}{
		{"safe unranked", s, &GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}, true},
		{"safe topk", s, &TopK{Input: &GroupLineage{Input: &Scan{Rel: r}, Cols: []int{1}}, K: 2}, true},
		{"lineage unranked", s2, &GroupLineage{Input: &Scan{Rel: correlated}, Cols: []int{0}}, true},
		{"lineage topk", s2, &TopK{Input: &GroupLineage{Input: &Scan{Rel: correlated}, Cols: []int{0}}, K: 3}, false},
		{"lineage threshold", s2, &Threshold{Input: &GroupLineage{Input: &Scan{Rel: correlated}, Cols: []int{0}}, Tau: 0.3}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Compile(c.root)
			want, err := p.Answers(ctx, c.space, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drain(t, p, ctx, c.space)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("stream yielded %d answers, Answers %d", len(got), len(want))
			}
			if c.ordered {
				for i := range got {
					if math.Abs(got[i].P-want[i].P) > 1e-9 {
						t.Fatalf("answer %d: streamed P %v, batch %v", i, got[i].P, want[i].P)
					}
				}
				return
			}
			wantP := map[pdb.Value]float64{}
			for _, a := range want {
				wantP[a.Vals[0]] = a.P
			}
			for _, a := range got {
				p, ok := wantP[a.Vals[0]]
				if !ok {
					t.Fatalf("streamed answer %v missing from batch result", a.Vals)
				}
				if math.Abs(p-a.P) > 1e-9 {
					t.Fatalf("answer %v: streamed P %v, batch %v", a.Vals, a.P, p)
				}
			}
		})
	}
}

// TestPlannerStreamEarlyBreak breaks after the first ranked answer and
// requires a clean stop — no panic, no further yields — on both the
// scheduler-backed and short-circuit routes.
func TestPlannerStreamEarlyBreak(t *testing.T) {
	s := formula.NewSpace()
	rel := correlatedRelation(s)
	for _, root := range []Node{
		&TopK{Input: &GroupLineage{Input: &Scan{Rel: rel}, Cols: []int{0}}, K: 3},
		&GroupLineage{Input: &Scan{Rel: rel}, Cols: []int{0}},
	} {
		p := Compile(root)
		n := 0
		for _, err := range p.StreamTraced(context.Background(), s, nil, nil, nil) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			break
		}
		if n != 1 {
			t.Fatalf("early break saw %d answers", n)
		}
	}
}

// TestPlannerStreamErrors pins the error surface: malformed plans and
// dead contexts end the stream with the same errors Answers reports.
func TestPlannerStreamErrors(t *testing.T) {
	s := formula.NewSpace()
	rel := correlatedRelation(s)
	inner := &GroupLineage{Input: &Scan{Rel: rel}, Cols: []int{0}}

	if _, err := drain(t, Compile(&TopK{Input: inner, K: 0}), context.Background(), s); err == nil {
		t.Fatal("K=0 streamed without error")
	}
	if _, err := drain(t, Compile(&GroupLineage{Input: &TopK{Input: &Scan{Rel: rel}, K: 1}}), context.Background(), s); err == nil {
		t.Fatal("nested ranking streamed without error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := drain(t, Compile(&TopK{Input: inner, K: 2}), ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context streamed err=%v, want context.Canceled", err)
	}
	if len(got) != 0 {
		t.Fatalf("dead context still yielded %d answers", len(got))
	}
}

// TestPlannerLineageWithSharedInterner pins that reusing one interner
// across pipelines (the façade DB's pool) changes nothing about the
// answers.
func TestPlannerLineageWithSharedInterner(t *testing.T) {
	s := formula.NewSpace()
	r, u := tinyRelations(s)
	root := &GroupLineage{
		Input: &EquiJoin{Left: &Scan{Rel: r}, Right: &Scan{Rel: u}, LeftCol: 0, RightCol: 0},
		Cols:  []int{1},
	}
	in := formula.NewInterner()
	first, _, _ := lineageWithStats(context.Background(), root, in)
	second, _, _ := lineageWithStats(context.Background(), root, in) // reuse
	fresh := Lineage(root)
	if len(first) != len(fresh) || len(second) != len(fresh) {
		t.Fatalf("answer counts diverge: %d/%d vs %d", len(first), len(second), len(fresh))
	}
	for i := range fresh {
		if !first[i].Lin.Equal(fresh[i].Lin) || !second[i].Lin.Equal(fresh[i].Lin) {
			t.Fatalf("answer %d lineage diverges under interner reuse", i)
		}
	}
}
