package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// maxAnswerTraces bounds the per-answer detail a QueryTrace retains;
// past it, AddAnswer only counts. Renders report the overflow.
const maxAnswerTraces = 64

// QueryTrace is one query execution's EXPLAIN ANALYZE: the routing
// decision plus per-stage timings, per-answer refinement outcomes, and
// cache traffic. The façade populates it during Prepared.Analyze or a
// WithTrace session's Run; plan and the façade call the builder
// methods, which are all nil-safe no-ops so untraced runs share the
// same code path.
//
// Text renders the deterministic tree (no wall-clock figures): with a
// fixed query, seed and sequential execution (pool parallelism 1) it
// is byte-identical across runs. String renders the same tree with
// timings for humans. The struct itself is the programmatic surface.
//
// Builder methods are not synchronized: one QueryTrace belongs to one
// query execution, and stages are appended from the single driving
// goroutine.
type QueryTrace struct {
	// Explain is the planner's one-line routing explanation.
	Explain string `json:"explain"`
	// Route is the route taken ("safe", "iq", "d-tree").
	Route string `json:"route"`

	// Stages are the execution stages in order (lineage, rank, conf,
	// ...), with volumes and wall-clock durations.
	Stages []Stage `json:"stages,omitempty"`

	// Lineage reports the lineage materialization, when the route ran
	// one.
	Lineage *LineageStats `json:"lineage,omitempty"`

	// Rank reports the anytime scheduler, when the plan was ranked.
	Rank *RankStats `json:"rank,omitempty"`

	// Answers holds per-answer outcomes (capped at maxAnswerTraces;
	// AnswersTotal is the true count).
	Answers      []AnswerTrace `json:"answers,omitempty"`
	AnswersTotal int           `json:"answers_total"`

	// FragCache is the session cache's traffic during this execution (a
	// façade-computed delta); Interner is the borrowed interner's
	// traffic. Deltas are exact under sequential use of the session;
	// concurrent sessions sharing a cache see mixed traffic.
	FragCache CacheStats `json:"frag_cache"`
	Interner  CacheStats `json:"interner"`

	// Wall is the full execution time; FirstAnswer the time to the
	// first yielded answer (0 if none or not streamed).
	Wall        time.Duration `json:"wall_ns"`
	FirstAnswer time.Duration `json:"first_answer_ns"`

	// Err is the terminal error's text, empty on success.
	Err string `json:"err,omitempty"`
}

// Stage is one timed execution stage.
type Stage struct {
	// Name identifies the stage ("lineage", "rank", "conf", "sort", ...).
	Name string `json:"name"`
	// Items is the stage's output volume (answers, ranked items, ...).
	Items int64 `json:"items"`
	// Wall is the stage's duration.
	Wall time.Duration `json:"wall_ns"`
}

// LineageStats reports one lineage materialization.
type LineageStats struct {
	// Answers is the number of distinct answer groups.
	Answers int64 `json:"answers"`
	// Clauses is the total clause count across answer DNFs.
	Clauses int64 `json:"clauses"`
	// Tuples is the number of base tuples scanned into the pipeline.
	Tuples int64 `json:"tuples"`
}

// RankStats reports an anytime ranking run.
type RankStats struct {
	// Kind is "top-k" or "threshold"; K / Tau is the cut.
	Kind string  `json:"kind"`
	K    int     `json:"k,omitempty"`
	Tau  float64 `json:"tau,omitempty"`
	// Steps is the total refinement steps granted across answers.
	Steps int64 `json:"steps"`
	// DecidedIn / DecidedOut count memberships proven by separation.
	DecidedIn  int64 `json:"decided_in"`
	DecidedOut int64 `json:"decided_out"`
}

// AnswerTrace is one answer's outcome.
type AnswerTrace struct {
	// Vals is the answer tuple rendered as text ("()" for the boolean
	// answer).
	Vals string `json:"vals"`
	// P is the probability estimate; Lo/Hi its proven bounds.
	P  float64 `json:"p"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Steps is the refinement steps this answer consumed (ranked runs).
	Steps int `json:"steps,omitempty"`
	// DecidedAtStep is the scheduler's global step count at the moment
	// this answer's membership was proven (ranked runs; 0 = undecided
	// or unranked).
	DecidedAtStep int `json:"decided_at_step,omitempty"`
	// Member reports proven membership on ranked runs.
	Member bool `json:"member,omitempty"`
}

// SetPlan records the routing decision.
func (t *QueryTrace) SetPlan(explain, route string) {
	if t == nil {
		return
	}
	t.Explain = explain
	t.Route = route
}

// AddStage appends a timed stage.
func (t *QueryTrace) AddStage(name string, items int64, wall time.Duration) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, Stage{Name: name, Items: items, Wall: wall})
}

// SetLineage records the lineage materialization totals.
func (t *QueryTrace) SetLineage(answers, clauses, tuples int64) {
	if t == nil {
		return
	}
	t.Lineage = &LineageStats{Answers: answers, Clauses: clauses, Tuples: tuples}
}

// SetRank records the ranking run's aggregate outcome.
func (t *QueryTrace) SetRank(kind string, k int, tau float64, steps, in, out int64) {
	if t == nil {
		return
	}
	t.Rank = &RankStats{Kind: kind, K: k, Tau: tau, Steps: steps, DecidedIn: in, DecidedOut: out}
}

// AddAnswer records one answer's outcome (detail capped at
// maxAnswerTraces; the count is always exact).
func (t *QueryTrace) AddAnswer(a AnswerTrace) {
	if t == nil {
		return
	}
	t.AnswersTotal++
	if len(t.Answers) < maxAnswerTraces {
		t.Answers = append(t.Answers, a)
	}
}

// SetCaches records the execution's cache traffic.
func (t *QueryTrace) SetCaches(frag, intern CacheStats) {
	if t == nil {
		return
	}
	t.FragCache = frag
	t.Interner = intern
}

// Finish records the terminal timings and error.
func (t *QueryTrace) Finish(wall, firstAnswer time.Duration, err error) {
	if t == nil {
		return
	}
	t.Wall = wall
	t.FirstAnswer = firstAnswer
	if err != nil {
		t.Err = err.Error()
	}
}

// Text renders the trace as a deterministic text tree: no wall-clock
// figures, so a fixed query + seed executed sequentially (pool
// parallelism 1) renders byte-identically across runs. Cache hit
// counts are deterministic only under sequential execution; parallel
// runs may order racy cache fills differently.
func (t *QueryTrace) Text() string { return t.render(false) }

// String renders the tree with wall-clock timings for humans.
func (t *QueryTrace) String() string { return t.render(true) }

func (t *QueryTrace) render(timed bool) string {
	if t == nil {
		return ""
	}
	var lines []string
	add := func(depth int, s string) {
		lines = append(lines, strings.Repeat("  ", depth)+s)
	}
	head := "EXPLAIN ANALYZE route=" + t.Route
	if timed && t.Wall > 0 {
		head += " wall=" + fmtDur(t.Wall)
	}
	add(0, head)
	if t.Explain != "" {
		add(1, "plan: "+t.Explain)
	}
	for _, st := range t.Stages {
		line := fmt.Sprintf("stage %s: items=%d", st.Name, st.Items)
		if timed {
			line += " wall=" + fmtDur(st.Wall)
		}
		add(1, line)
		if st.Name == "lineage" && t.Lineage != nil {
			l := t.Lineage
			add(2, fmt.Sprintf("answers=%d clauses=%d tuples=%d", l.Answers, l.Clauses, l.Tuples))
		}
		if st.Name == "rank" && t.Rank != nil {
			r := t.Rank
			cut := r.Kind
			if r.Kind == "top-k" {
				cut = fmt.Sprintf("top-k k=%d", r.K)
			} else if r.Kind == "threshold" {
				cut = "threshold tau=" + fmtProb(r.Tau)
			}
			add(2, fmt.Sprintf("%s steps=%d decided in=%d out=%d", cut, r.Steps, r.DecidedIn, r.DecidedOut))
		}
	}
	if t.AnswersTotal > 0 {
		add(1, fmt.Sprintf("answers (%d):", t.AnswersTotal))
		for i, a := range t.Answers {
			line := fmt.Sprintf("[%d] %s P=%s bounds=[%s,%s]",
				i+1, a.Vals, fmtProb(a.P), fmtProb(a.Lo), fmtProb(a.Hi))
			if a.Steps > 0 {
				line += fmt.Sprintf(" steps=%d", a.Steps)
			}
			if a.DecidedAtStep > 0 {
				line += fmt.Sprintf(" decided@%d", a.DecidedAtStep)
			}
			add(2, line)
		}
		if n := t.AnswersTotal - len(t.Answers); n > 0 {
			add(2, fmt.Sprintf("... (%d more)", n))
		}
	}
	add(1, "caches: frag "+fmtCache(t.FragCache)+" | intern "+fmtCache(t.Interner))
	tail := fmt.Sprintf("total: answers=%d", t.AnswersTotal)
	if t.Err != "" {
		tail += " err=" + t.Err
	}
	if timed {
		tail += " wall=" + fmtDur(t.Wall)
		if t.FirstAnswer > 0 {
			tail += " first=" + fmtDur(t.FirstAnswer)
		}
	}
	add(1, tail)
	return strings.Join(lines, "\n") + "\n"
}

func fmtProb(p float64) string { return strconv.FormatFloat(p, 'f', 6, 64) }

func fmtCache(s CacheStats) string {
	return fmt.Sprintf("%d/%d hits (%.1f%%)", s.Hits, s.Lookups(), 100*s.HitRate())
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
