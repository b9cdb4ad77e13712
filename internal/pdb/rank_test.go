package pdb

import (
	"context"
	"testing"

	"repro/internal/formula"
	"repro/internal/rank"
)

func TestConfTopKRanksAnswers(t *testing.T) {
	s := formula.NewSpace()
	probs := []float64{0.3, 0.8, 0.55, 0.1}
	answers := make([]Answer, len(probs))
	for i, p := range probs {
		answers[i] = Answer{
			Vals: []Value{Value(i)},
			Lin:  formula.DNF{formula.MustClause(formula.Pos(s.AddBool(p)))},
		}
	}
	confs, res, err := ConfTopK(context.Background(), s, answers, 2, rank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(confs) != 2 || confs[0].Vals[0] != 1 || confs[1].Vals[0] != 2 {
		t.Fatalf("top-2 = %+v, want answers 1 then 2", confs)
	}
	if !confs[0].Res.Converged || confs[0].P != 0.8 {
		t.Fatalf("top answer %+v, want exact 0.8 with membership proof", confs[0])
	}
	if len(res.Items) != 4 {
		t.Fatalf("scheduler outcome lost items: %+v", res)
	}

	thRes, err := rank.Threshold(context.Background(), s, Lineages(answers), 0.5, rank.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := RankedConfs(answers, thRes)
	if len(th) != 2 || th[0].Vals[0] != 1 || th[1].Vals[0] != 2 {
		t.Fatalf("threshold answers = %+v, want 1 then 2", th)
	}
}
