package serve

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Request is the JSON body of POST /v1/query: which affinity session to
// run under, an optional per-request precision and budget, and the
// query itself in the wire plan IR.
type Request struct {
	// Session names the affinity session the query runs under. Named
	// sessions pin their fragment cache across requests (and expire when
	// idle, Config.SessionTTL); an empty name runs the query on a fresh
	// one-shot session.
	Session string `json:"session,omitempty"`
	// Eps, when present, is an explicit request for the ε-approximation
	// floor (absolute error). An explicit Eps is a contract: admission
	// control never degrades such a query to a wider Eps — under
	// pressure it either runs as requested or is shed with 429. Requests
	// without Eps run at the server default and are eligible for
	// degradation. On a named session the explicit Eps is sticky: later
	// requests on the session inherit it unless they carry their own.
	Eps *float64 `json:"eps,omitempty"`
	// Budget bounds the evaluation; zero or absent fields fall back,
	// one by one, to the server's default budget.
	Budget *Budget `json:"budget,omitempty"`
	// Query is the plan in wire IR form.
	Query *Node `json:"query"`
}

// MaxWireNodes caps the operator count of one wire query. The request
// body is already size-capped, but a pathological body can still pack
// thousands of operators into it; refusing them at validation keeps
// the compile step's work proportional to queries a human could have
// meant, and turns a resource-exhaustion vector into a 400.
const MaxWireNodes = 4096

// Validate rejects request shapes that must never reach the engine:
// a non-finite or out-of-range Eps (NaN would poison every bounds
// comparison downstream), negative budget fields and a timeout_ms that
// overflows a time.Duration into a negative one (the engine treats
// both as "no budget", silently unbounding the query), and plans over
// MaxWireNodes operators. A violation is an error the server writes as
// a 400; a valid request passes through untouched.
func (r *Request) Validate() error {
	if r.Eps != nil {
		e := *r.Eps
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 || e >= 1 {
			return fmt.Errorf("eps %v must be a finite value in [0, 1)", e)
		}
	}
	if b := r.Budget; b != nil {
		if b.MaxNodes < 0 || b.MaxWork < 0 || b.TimeoutMS < 0 {
			return errors.New("budget fields must be non-negative")
		}
		if int64(b.TimeoutMS) > int64(math.MaxInt64/time.Millisecond) {
			return fmt.Errorf("budget timeout_ms %d overflows a duration", b.TimeoutMS)
		}
	}
	if n := countNodes(r.Query); n > MaxWireNodes {
		return fmt.Errorf("query plan has over %d operators", MaxWireNodes)
	}
	return nil
}

// countNodes sizes a wire plan with an explicit stack (no recursion —
// the tree shape is client-controlled), stopping as soon as the cap is
// exceeded.
func countNodes(root *Node) int {
	if root == nil {
		return 0
	}
	n := 0
	stack := []*Node{root}
	for len(stack) > 0 && n <= MaxWireNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd == nil {
			continue
		}
		n++
		switch {
		case nd.Where != nil:
			stack = append(stack, nd.Where.Input)
		case nd.Join != nil:
			stack = append(stack, nd.Join.Left, nd.Join.Right)
		case nd.JoinLess != nil:
			stack = append(stack, nd.JoinLess.Left, nd.JoinLess.Right)
		case nd.Project != nil:
			stack = append(stack, nd.Project.Input)
		case nd.GroupLineage != nil:
			stack = append(stack, nd.GroupLineage.Input)
		case nd.TopK != nil:
			stack = append(stack, nd.TopK.Input)
		case nd.Threshold != nil:
			stack = append(stack, nd.Threshold.Input)
		}
	}
	return n
}

// Budget is the wire form of engine.Budget's d-tree limits and timeout.
type Budget struct {
	MaxNodes  int `json:"max_nodes,omitempty"`
	MaxWork   int `json:"max_work,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Engine converts to the engine's budget shape, field by field: a zero
// (or absent) field takes def's value, so a request that sets only
// max_nodes still runs under the server's default Timeout.
func (b *Budget) Engine(def engine.Budget) engine.Budget {
	if b == nil {
		return def
	}
	if b.MaxNodes != 0 {
		def.MaxNodes = b.MaxNodes
	}
	if b.MaxWork != 0 {
		def.MaxWork = b.MaxWork
	}
	if b.TimeoutMS != 0 {
		def.Timeout = time.Duration(b.TimeoutMS) * time.Millisecond
	}
	return def
}

// Node is one wire-format plan operator; exactly one field must be set.
// The tree mirrors the fluent builder one-to-one, and the backend
// compiles it through the builder, so every misuse (unregistered
// relation, out-of-range column, nested ranking, ...) surfaces with the
// builder's own validation message as a 400.
type Node struct {
	// Scan reads a registered relation by name.
	Scan string `json:"scan,omitempty"`
	// Where keeps input tuples with Col op Value (a leaf filter when
	// directly over a scan; forces the lineage route elsewhere).
	Where *Where `json:"where,omitempty"`
	// Join equi-joins two subtrees on left[LeftCol] = right[RightCol].
	Join *Join `json:"join,omitempty"`
	// JoinLess joins on left[LeftCol] < right[RightCol] — the structured
	// inequality the IQ sorted-scan route recognizes.
	JoinLess *Join `json:"join_less,omitempty"`
	// Project narrows the schema to Cols.
	Project *Unary `json:"project,omitempty"`
	// GroupLineage terminates the relational chain: group by Cols, each
	// group's lineage becomes the answer's DNF (empty Cols = the Boolean
	// query).
	GroupLineage *Unary `json:"group_lineage,omitempty"`
	// TopK keeps the K most probable answers (outermost only).
	TopK *TopK `json:"top_k,omitempty"`
	// Threshold keeps the answers with P ≥ Tau (outermost only).
	Threshold *Threshold `json:"threshold,omitempty"`
}

// Where is a column-literal comparison filter.
type Where struct {
	Input *Node `json:"input"`
	Col   int   `json:"col"`
	// Op is one of "eq", "ne", "lt", "le", "gt", "ge".
	Op    string `json:"op"`
	Value int64  `json:"value"`
}

// Join joins two wire subtrees on a column pair.
type Join struct {
	Left     *Node `json:"left"`
	Right    *Node `json:"right"`
	LeftCol  int   `json:"left_col"`
	RightCol int   `json:"right_col"`
}

// Unary is a single-input operator with a column list.
type Unary struct {
	Input *Node `json:"input"`
	Cols  []int `json:"cols"`
}

// TopK is the wire top-k root.
type TopK struct {
	Input *Node `json:"input"`
	K     int   `json:"k"`
}

// Threshold is the wire threshold root.
type Threshold struct {
	Input *Node   `json:"input"`
	Tau   float64 `json:"tau"`
}

// Meta is the stream's first event: the query's identity and routing,
// and the precision it actually runs at (Degraded marks an Eps widened
// by admission control).
type Meta struct {
	ID       string   `json:"id"`
	Session  string   `json:"session,omitempty"`
	Explain  string   `json:"explain"`
	Schema   []string `json:"schema,omitempty"`
	Eps      float64  `json:"eps"`
	Degraded bool     `json:"degraded,omitempty"`
}

// Answer is one streamed answer event. DecidedAtStep, on ranked
// queries, is the scheduler's cumulative step count at the moment this
// answer's membership was proven; an answer event whose DecidedAtStep
// is strictly below the done event's steps was on the wire before the
// query finished refining.
type Answer struct {
	Vals          []int64 `json:"vals"`
	P             float64 `json:"p"`
	Lo            float64 `json:"lo"`
	Hi            float64 `json:"hi"`
	Exact         bool    `json:"exact,omitempty"`
	Converged     bool    `json:"converged,omitempty"`
	DecidedAtStep int     `json:"decided_at_step,omitempty"`
}

// Summary is the stream's final (done) event.
type Summary struct {
	Answers    int    `json:"answers"`
	Steps      int64  `json:"steps,omitempty"`
	Route      string `json:"route,omitempty"`
	WallMicros int64  `json:"wall_us"`
	Error      string `json:"error,omitempty"`
}

// SessionClient is one affinity session's query builder: the backend
// pins per-session state (the fragment cache) inside it, and Build
// turns one wire request, at the precision and budget admission chose,
// into a BuiltQuery. A Build error is the request's fault (a
// misuse the builder rejects) and the server answers it with a 400
// before writing anything else. Implementations must be safe for
// concurrent Builds, and the queries they build for concurrent runs —
// the soak profile is N goroutines per named session.
type SessionClient interface {
	Build(req *Request, eps float64, budget engine.Budget) (BuiltQuery, error)
}

// BuiltQuery is one built, routed query, ready to run once. The
// backend only builds; the server runs it and writes the response —
// meta from Explain and Schema, one answer per element of Answers, the
// done summary from Trace.
type BuiltQuery interface {
	// Explain is the planner's one-line routing explanation.
	Explain() string
	// Schema names the answer columns.
	Schema() []string
	// Answers streams the wire answers, each the moment it is proven.
	// A failure is the final element, after the answers already
	// delivered; breaking the loop cancels the evaluation.
	Answers(ctx context.Context) iter.Seq2[Answer, error]
	// Trace is the execution's EXPLAIN ANALYZE trace once Answers has
	// ended (nil before, or if the run never finished).
	Trace() *obs.QueryTrace
}

// Backend is the query engine the server fronts. The root repro package
// implements it over the DB → Session → Query façade (repro.NewServer);
// the indirection keeps this package importable from the façade, so
// serve options can be re-exported there.
type Backend interface {
	// OpenSession creates one affinity unit with fresh pinned state.
	OpenSession() SessionClient
	// Snapshot exports the engine metrics for GET /metrics.
	Snapshot() obs.Snapshot
}
