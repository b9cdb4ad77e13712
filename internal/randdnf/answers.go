package randdnf

import "repro/internal/formula"

// Answers builds Q1/B6-style lineage at scale: nAnswers answers over
// one shared pool of base-tuple variables, each answer the union of a
// handful of width-3 joins, with skewed per-answer sizes so the
// confidence distribution has a clear head and a long tail — the
// regime where top-k pruning pays.
func Answers(nAnswers int) (*formula.Space, []formula.DNF) {
	s := formula.NewSpace()
	vars := make([]formula.Var, 4*nAnswers)
	for i := range vars {
		vars[i] = s.AddBool(0.02 + 0.25*float64(i%11)/11)
	}
	dnfs := make([]formula.DNF, nAnswers)
	for i := 0; i < nAnswers; i++ {
		clauses := 12 + i%16 // 12..27 clauses, all past the exact shortcut
		var d formula.DNF
		for j := 0; j < clauses; j++ {
			a := vars[(4*i+j)%len(vars)]
			b := vars[(4*i+3*j+1)%len(vars)]
			c := vars[(7*i+j+2)%len(vars)]
			if cl, ok := formula.NewClause(formula.Pos(a), formula.Pos(b), formula.Pos(c)); ok {
				d = append(d, cl)
			}
		}
		dnfs[i] = d.Normalize()
	}
	return s, dnfs
}

// AnswersDeep is the deep-lineage variant of Answers: fewer answers,
// each with enough clauses that refinement builds trees of hundreds of
// nodes. Here the per-step d-tree cost dominates a run (on Answers
// per-answer preparation does).
func AnswersDeep(nAnswers int) (*formula.Space, []formula.DNF) {
	s := formula.NewSpace()
	vars := make([]formula.Var, 6*nAnswers)
	for i := range vars {
		vars[i] = s.AddBool(0.01 + 0.12*float64(i%13)/13)
	}
	dnfs := make([]formula.DNF, nAnswers)
	for i := 0; i < nAnswers; i++ {
		clauses := 40 + i%25
		var d formula.DNF
		for j := 0; j < clauses; j++ {
			a := vars[(6*i+j)%len(vars)]
			b := vars[(6*i+3*j+1)%len(vars)]
			c := vars[(11*i+j+2)%len(vars)]
			if cl, ok := formula.NewClause(formula.Pos(a), formula.Pos(b), formula.Pos(c)); ok {
				d = append(d, cl)
			}
		}
		dnfs[i] = d.Normalize()
	}
	return s, dnfs
}

// Width3 is a random DNF of exactly width-3 clauses over 6/5 as many
// Boolean variables with probabilities in [0.01, 0.15], seeded by its
// clause count. Refined at a tight ε under a node budget, it keeps
// refining until the budget is spent.
func Width3(clauses int) (*formula.Space, formula.DNF) {
	return Generate(Config{
		Vars: 6 * clauses / 5, Clauses: clauses, MaxWidth: 3, ForceWidth: true,
		MaxDomain: 2, MinProb: 0.01, MaxProb: 0.15,
	}, int64(clauses))
}
