package repro

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	rtrace "runtime/trace"
	"time"

	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/plan"
)

// BuildError is the uniform error type every fluent-builder validation
// failure surfaces as: which builder call went wrong and why. Build
// joins every recorded failure, so errors.As(err, new(*BuildError))
// recovers the first and errors.Join unpacking recovers all.
type BuildError struct {
	// Op names the builder call that failed ("Query", "Join", "TopK", …).
	Op string
	// Reason says what was wrong.
	Reason string
}

func (e *BuildError) Error() string { return "repro: " + e.Op + ": " + e.Reason }

// Query is the fluent query builder: a chain of relational operators
// compiled to the plan IR at Build, validated as it is written.
// Builder methods record failures instead of panicking, so a chain can
// always be written straight through; Build (or the first Run) reports
// everything that went wrong as BuildErrors. A Query is single-use
// scaffolding and not safe for concurrent mutation; the Prepared plan
// it builds is immutable and safe to Run concurrently.
type Query struct {
	sess    *Session
	node    plan.Node
	errs    []error
	grouped bool
	ranked  bool
}

// Query starts a fluent query over a source: a registered relation
// name, a registered *pdb.Relation, or a plan.Node subtree (the escape
// hatch for pre-built IR such as the TPC-H catalog). Adopted IR is
// validated by the planner at Build — a malformed tree is a BuildError
// with Op "Query" carrying plan.Compile's reason — and its scans must
// read registered relations. Source errors, like every builder error,
// surface at Build — and so does a session Eps outside [0, 1) (the
// wire's rule): ε ≥ 1 is trivially met by the unrefined bounds, and a
// negative or NaN ε would silently evaluate exactly.
func (s *Session) Query(source any) *Query {
	q := &Query{sess: s}
	if e := s.eps; math.IsNaN(e) || math.IsInf(e, 0) || e < 0 || e >= 1 {
		q.fail("Session", "eps %v must be a finite value in [0, 1)", e)
	}
	switch src := source.(type) {
	case string:
		rel, ok := s.db.Relation(src)
		if !ok {
			return q.fail("Query", "relation %q is not registered with the DB", src)
		}
		q.node = &plan.Scan{Rel: rel}
	case *pdb.Relation:
		if src == nil {
			return q.fail("Query", "nil relation")
		}
		if !s.db.known(src) {
			return q.fail("Query", "relation %q is not registered with the DB", src.Name)
		}
		q.node = &plan.Scan{Rel: src}
	case plan.Node:
		if src == nil {
			return q.fail("Query", "nil plan node")
		}
		q.adoptNode(src)
	case nil:
		return q.fail("Query", "nil source")
	default:
		return q.fail("Query", "unsupported source %T (want a relation name, *pdb.Relation, or plan.Node)", source)
	}
	return q
}

// adoptNode takes over a pre-built IR subtree, recording the shape
// flags the fluent methods check; Build validates the tree itself.
func (q *Query) adoptNode(n plan.Node) {
	q.node = n
	switch n.(type) {
	case *plan.TopK, *plan.Threshold:
		q.ranked, q.grouped = true, true
	case *plan.GroupLineage:
		q.grouped = true
	}
}

// fail records a BuildError and keeps the chain usable.
func (q *Query) fail(op, format string, args ...any) *Query {
	q.errs = append(q.errs, &BuildError{Op: op, Reason: fmt.Sprintf(format, args...)})
	return q
}

// open reports whether more relational operators may be appended,
// recording the violation otherwise: nothing follows a ranking root,
// and only TopK/Threshold follow GroupLineage.
func (q *Query) open(op string) bool {
	switch {
	case q.ranked:
		q.fail(op, "no operator may follow TopK/Threshold — ranking must be the outermost operator")
		return false
	case q.grouped:
		q.fail(op, "only TopK or Threshold may follow GroupLineage")
		return false
	}
	return true
}

// checkCol validates a column position against the current schema width
// (skipped while the chain is already broken, to avoid cascading noise).
func (q *Query) checkCol(op string, col, width int, what string) bool {
	if col < 0 || col >= width {
		q.fail(op, "%s column %d out of range [0, %d)", what, col, width)
		return false
	}
	return true
}

// Select keeps the tuples satisfying pred. Directly over a scan it is a
// leaf filter the structural routes accept; anywhere else it forces the
// lineage route (see plan.Select).
func (q *Query) Select(pred func(vals []pdb.Value) bool) *Query {
	if !q.open("Select") {
		return q
	}
	if pred == nil {
		return q.fail("Select", "nil predicate")
	}
	if q.node != nil {
		q.node = &plan.Select{Input: q.node, Pred: pred}
	}
	return q
}

// Join equi-joins with another query of the same session on
// this[leftCol] = other[rightCol]; the output schema is this query's
// columns then the other's.
func (q *Query) Join(other *Query, leftCol, rightCol int) *Query {
	l, r, ok := q.joinOperands("Join", other)
	if !ok {
		return q
	}
	if q.checkCol("Join", leftCol, plan.Width(l), "left") &&
		q.checkCol("Join", rightCol, plan.Width(r), "right") {
		q.node = &plan.EquiJoin{Left: l, Right: r, LeftCol: leftCol, RightCol: rightCol}
	}
	return q
}

// JoinLess joins with another query on this[leftCol] < other[rightCol]
// — the structured inequality the IQ sorted-scan route recognizes.
func (q *Query) JoinLess(other *Query, leftCol, rightCol int) *Query {
	l, r, ok := q.joinOperands("JoinLess", other)
	if !ok {
		return q
	}
	if q.checkCol("JoinLess", leftCol, plan.Width(l), "left") &&
		q.checkCol("JoinLess", rightCol, plan.Width(r), "right") {
		q.node = &plan.ThetaJoin{Left: l, Right: r, Less: &plan.Less{LeftCol: leftCol, RightCol: rightCol}}
	}
	return q
}

// JoinPred joins with another query on an opaque predicate over the two
// sides' tuples; it always forces the lineage route.
func (q *Query) JoinPred(other *Query, pred func(left, right []pdb.Value) bool) *Query {
	l, r, ok := q.joinOperands("JoinPred", other)
	if !ok {
		return q
	}
	if pred == nil {
		return q.fail("JoinPred", "nil predicate")
	}
	q.node = &plan.ThetaJoin{Left: l, Right: r, Pred: pred}
	return q
}

// joinOperands validates the two sides of a join and absorbs the other
// chain's recorded errors, so a broken operand surfaces at this chain's
// Build too.
func (q *Query) joinOperands(op string, other *Query) (l, r plan.Node, ok bool) {
	if !q.open(op) {
		return nil, nil, false
	}
	if other == nil {
		q.fail(op, "nil query operand")
		return nil, nil, false
	}
	if other.sess != q.sess {
		q.fail(op, "operands belong to different sessions")
		return nil, nil, false
	}
	q.errs = append(q.errs, other.errs...)
	if other.ranked || other.grouped {
		q.fail(op, "cannot join a grouped or ranked query — GroupLineage/TopK/Threshold terminate a chain")
		return nil, nil, false
	}
	if q.node == nil || other.node == nil {
		return nil, nil, false
	}
	return q.node, other.node, true
}

// Project narrows the schema to the given column positions (no
// duplicate elimination — lineage is unchanged). An empty projection is
// a build error; projecting everything away is what GroupLineage with
// no columns (the Boolean query) is for.
func (q *Query) Project(cols ...int) *Query {
	if !q.open("Project") {
		return q
	}
	if len(cols) == 0 {
		return q.fail("Project", "empty projection — GroupLineage() with no columns is the Boolean query")
	}
	if q.node == nil {
		return q
	}
	w := plan.Width(q.node)
	for _, c := range cols {
		if !q.checkCol("Project", c, w, "projected") {
			return q
		}
	}
	q.node = &plan.Project{Input: q.node, Cols: append([]int(nil), cols...)}
	return q
}

// GroupLineage terminates the relational chain with the
// duplicate-eliminating projection: tuples group by the projected
// values and each group's lineage clauses become the answer's DNF. No
// columns is the Boolean query. Only TopK or Threshold may follow.
func (q *Query) GroupLineage(cols ...int) *Query {
	if !q.open("GroupLineage") {
		return q
	}
	q.grouped = true
	if q.node == nil {
		return q
	}
	w := plan.Width(q.node)
	for _, c := range cols {
		if !q.checkCol("GroupLineage", c, w, "grouped") {
			return q
		}
	}
	q.node = &plan.GroupLineage{Input: q.node, Cols: append([]int(nil), cols...)}
	return q
}

// TopK keeps the K most probable answers. It must be the last call of
// the chain; on the lineage route the answers stream out of Run as
// their top-k membership is proven.
func (q *Query) TopK(k int) *Query {
	if q.ranked {
		return q.fail("TopK", "duplicate ranking — TopK/Threshold may appear once, as the outermost operator")
	}
	q.ranked, q.grouped = true, true
	if k <= 0 {
		return q.fail("TopK", "K must be positive, got %d", k)
	}
	if q.node != nil {
		q.node = &plan.TopK{Input: q.node, K: k}
	}
	return q
}

// Threshold keeps the answers with confidence at least tau. It must be
// the last call of the chain, like TopK.
func (q *Query) Threshold(tau float64) *Query {
	if q.ranked {
		return q.fail("Threshold", "duplicate ranking — TopK/Threshold may appear once, as the outermost operator")
	}
	q.ranked, q.grouped = true, true
	if math.IsNaN(tau) || tau < 0 || tau > 1 {
		return q.fail("Threshold", "Tau must be a probability in [0, 1], got %v", tau)
	}
	if q.node != nil {
		q.node = &plan.Threshold{Input: q.node, Tau: tau}
	}
	return q
}

// Schema returns the output column names at the current point of the
// chain (nil once the chain has recorded an error).
func (q *Query) Schema() []string {
	if len(q.errs) > 0 || q.node == nil {
		return nil
	}
	return plan.Schema(q.node)
}

// Build validates the chain and compiles it through the planner. Every
// builder failure recorded so far is returned, joined; each is a
// *BuildError. A tree the planner rejects, or one scanning a relation
// the DB does not know, fails with Op "Query".
func (q *Query) Build() (*Prepared, error) {
	if len(q.errs) > 0 {
		return nil, errors.Join(q.errs...)
	}
	if q.node == nil {
		return nil, &BuildError{Op: "Build", Reason: "empty query"}
	}
	p := plan.CompileWith(q.node, q.sess.planOptions())
	if err := p.Err(); err != nil {
		return nil, &BuildError{Op: "Query", Reason: err.Error()}
	}
	for _, rel := range p.Relations() {
		if !q.sess.db.known(rel) {
			return nil, &BuildError{Op: "Query", Reason: fmt.Sprintf("plan scans relation %q, which is not registered with the DB", rel.Name)}
		}
	}
	return &Prepared{p: p, sess: q.sess}, nil
}

// Explain builds the query and returns the planner's one-line routing
// explanation.
func (q *Query) Explain() (string, error) {
	pr, err := q.Build()
	if err != nil {
		return "", err
	}
	return pr.Explain(), nil
}

// Run builds the query and streams its answers (see Prepared.Run). A
// build failure yields no answers and the build error.
func (q *Query) Run(ctx context.Context) iter.Seq2[Answer, error] {
	pr, err := q.Build()
	if err != nil {
		return func(yield func(Answer, error) bool) { yield(Answer{}, err) }
	}
	return pr.Run(ctx)
}

// All builds the query and returns the full answer set in batch form
// (see Prepared.All). A build failure returns the build error.
func (q *Query) All(ctx context.Context) ([]Answer, error) {
	pr, err := q.Build()
	if err != nil {
		return nil, err
	}
	return pr.All(ctx)
}

// Prepared is a built, routed query: immutable, reusable, and safe for
// concurrent Runs (the underlying plan holds no per-run state).
type Prepared struct {
	p    *plan.Plan
	sess *Session
}

// Plan exposes the routed plan — the escape hatch to the internal
// surface (Route, Why, Lineage).
func (pr *Prepared) Plan() *plan.Plan { return pr.p }

// Explain returns the planner's one-line routing explanation.
func (pr *Prepared) Explain() string { return pr.p.Explain() }

// runObs is the per-execution bookkeeping every Prepared entry point
// (Run, All, Analyze) shares: the query's deadline (the session
// budget's Timeout), the borrowed interner with its traffic baseline,
// the session-cache baseline for the trace's delta, the
// wall/first-answer clock, and the runtime/trace task that scopes the
// execution's regions. begin opens it; finish releases the deadline,
// records into the DB registry, completes the trace, and returns the
// interner.
type runObs struct {
	pr      *Prepared
	tr      *obs.QueryTrace
	cancel  context.CancelFunc
	in      *formula.Interner
	inBase  obs.CacheStats
	fragB   obs.CacheStats
	start   time.Time
	first   time.Duration
	endTask func()
}

func (pr *Prepared) begin(ctx context.Context, tr *obs.QueryTrace) (context.Context, *runObs) {
	o := &runObs{pr: pr, tr: tr, in: pr.sess.db.interner()}
	ctx, o.cancel = pr.sess.budget.Context(ctx)
	o.inBase = o.in.CacheStats()
	o.fragB = pr.sess.frags.CacheStats()
	if rtrace.IsEnabled() {
		var task *rtrace.Task
		ctx, task = rtrace.NewTask(ctx, "repro.query")
		o.endTask = task.End
	}
	o.start = time.Now()
	return ctx, o
}

// answered marks the time to first answer, once.
func (o *runObs) answered() {
	if o.first == 0 {
		o.first = time.Since(o.start)
	}
}

func (o *runObs) finish(err error) {
	wall := time.Since(o.start)
	o.cancel()
	sess := o.pr.sess
	inDelta := o.in.CacheStats().Sub(o.inBase)
	sess.db.release(o.in)
	met := sess.db.metrics
	met.RecordInterner(inDelta.Hits, inDelta.Misses)
	met.RecordQuery(wall, o.first)
	o.tr.SetCaches(sess.frags.CacheStats().Sub(o.fragB), inDelta)
	o.tr.Finish(wall, o.first, err)
	if o.endTask != nil {
		o.endTask()
	}
	if sess.trace != nil && o.tr != nil {
		sess.trace(o.tr)
	}
}

// traceSink returns the trace a run should populate: a fresh one when
// the session installed a WithTrace sink, nil (all builders no-op)
// otherwise.
func (pr *Prepared) traceSink() *obs.QueryTrace {
	if pr.sess.trace != nil {
		return &obs.QueryTrace{}
	}
	return nil
}

// Run executes the query with the session's evaluator and streams the
// answers. On a ranked lineage-route query the stream is anytime: each
// answer is yielded the moment its membership is proven, before
// refinement of the remaining answers finishes; exact routes yield
// their answers once computed. Breaking out of the loop cancels the
// run. A failure ends the stream with a final (zero answer, error)
// pair after the proven prefix — iterate to the end and check the
// error, or use Collect.
func (pr *Prepared) Run(ctx context.Context) iter.Seq2[Answer, error] {
	return func(yield func(Answer, error) bool) { pr.run(ctx, yield) }
}

// run is Run's body. It is a method of its own so that Run's iterator,
// which holds no defer, stays small enough to inline into the caller's
// range loop: a served query then allocates neither that iterator nor
// its loop body on the heap.
func (pr *Prepared) run(ctx context.Context, yield func(Answer, error) bool) {
	tr := pr.traceSink()
	ctx, o := pr.begin(ctx, tr)
	var runErr error
	// Deferred so that a panic in the caller's loop body still counts
	// the query, fires the trace sink and returns the interner.
	defer func() { o.finish(runErr) }()
	for a, err := range pr.p.StreamTraced(ctx, pr.sess.db.space, pr.sess.Evaluator(), o.in, tr) {
		if err != nil {
			runErr = err
		} else {
			o.answered()
		}
		if !yield(a, err) {
			break
		}
	}
}

// All runs the prepared query to completion and returns the full
// answer set in canonical batch order — on ranked queries most
// probable first, exactly like the internal Plan.Answers path. Run's
// stream instead delivers ranked answers in proof order; Collect(Run)
// when arrival order is what matters.
func (pr *Prepared) All(ctx context.Context) ([]Answer, error) {
	return pr.all(ctx, pr.traceSink())
}

func (pr *Prepared) all(ctx context.Context, tr *obs.QueryTrace) ([]Answer, error) {
	ctx, o := pr.begin(ctx, tr)
	out, err := pr.p.AnswersTraced(ctx, pr.sess.db.space, pr.sess.Evaluator(), o.in, tr)
	if len(out) > 0 {
		o.answered()
	}
	o.finish(err)
	return out, err
}

// Analyze executes the query to completion, discards the answers, and
// returns the execution's EXPLAIN ANALYZE trace: the routing decision,
// per-stage timings, lineage volumes, the ranking scheduler's outcome
// with per-answer refinement steps and decision points, and the session
// caches' traffic during the run. Render it with Text (deterministic,
// no timings) or String (timed); the struct is the programmatic
// surface. The run is a real execution with the session's evaluator —
// budgets, caches and metrics apply exactly as in All. The returned
// trace is non-nil even on error, carrying whatever was recorded before
// the failure.
func (pr *Prepared) Analyze(ctx context.Context) (*QueryTrace, error) {
	tr := &obs.QueryTrace{}
	_, err := pr.all(ctx, tr)
	return tr, err
}
