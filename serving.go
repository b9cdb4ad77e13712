package repro

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/serve"
)

// NewServer wires a query service (internal/serve via the ServeConfig /
// QueryServer re-exports) over a DB: POST /v1/query streams a wire-IR
// query's answers as Server-Sent Events the moment each membership is
// proven, named sessions pin a fragment cache across requests,
// admission control degrades then sheds under
// pressure, and GET /metrics and GET /v1/query/{id}/trace export the
// DB's observability layer. Mount srv.Handler on any net/http server;
// drain with srv.Shutdown before closing it.
//
// The wire query IR mirrors the fluent builder one-to-one and is
// compiled through it, so every misuse a Go caller would get as a
// BuildError comes back as a 400 carrying the same message.
func NewServer(db *DB, cfg serve.Config) *serve.Server {
	return serve.New(&serveBackend{db: db, cfg: cfg}, cfg)
}

// serveBackend implements serve.Backend over a DB.
type serveBackend struct {
	db  *DB
	cfg serve.Config
}

func (b *serveBackend) Snapshot() obs.Snapshot { return b.db.Snapshot() }

// OpenSession creates one affinity unit: a private fragment cache,
// unless the server shares one warm-started cache across all sessions.
// The repro.Session itself is created per request — sessions are cheap,
// and the per-request one carries that request's effective Eps and
// budget over the pinned cache.
func (b *serveBackend) OpenSession() serve.SessionClient {
	frags := b.cfg.SharedFrags
	if frags == nil {
		frags = NewFragCache(0)
	}
	return &serveClient{db: b.db, frags: frags, inject: b.cfg.Inject}
}

// serveClient is serve.SessionClient over the façade.
type serveClient struct {
	db     *DB
	frags  *FragCache
	inject *fault.Injector
}

// Build compiles a wire request through the fluent builder on a
// session at the given precision and budget; every failure is the
// builder's BuildError, which the server writes as a 400.
func (c *serveClient) Build(req *serve.Request, eps float64, budget Budget) (serve.BuiltQuery, error) {
	b := &servedQuery{}
	opts := []SessionOption{
		WithSharedFragCache(c.frags),
		WithBudget(budget),
		WithTrace(func(t *QueryTrace) { b.tr = t }),
	}
	if eps > 0 {
		opts = append(opts, WithEps(eps))
	}
	if c.inject != nil {
		opts = append(opts, WithInjector(c.inject))
	}
	q, err := compileWire(c.db.Session(opts...), req.Query)
	if err != nil {
		return nil, err
	}
	if b.pr, err = q.Build(); err != nil {
		return nil, err
	}
	b.schema = q.Schema()
	return b, nil
}

// servedQuery is serve.BuiltQuery over a prepared façade query; its
// session's trace sink fills tr when the run ends.
type servedQuery struct {
	pr     *Prepared
	schema []string
	tr     *QueryTrace
}

func (b *servedQuery) Explain() string    { return b.pr.Explain() }
func (b *servedQuery) Schema() []string   { return b.schema }
func (b *servedQuery) Trace() *QueryTrace { return b.tr }

func (b *servedQuery) Answers(ctx context.Context) iter.Seq2[serve.Answer, error] {
	return func(yield func(serve.Answer, error) bool) {
		for a, err := range b.pr.Run(ctx) {
			if !yield(wireAnswer(a), err) {
				return
			}
		}
	}
}

// wireAnswer converts a façade answer to the wire shape.
func wireAnswer(a Answer) serve.Answer {
	vals := make([]int64, len(a.Vals))
	for i, v := range a.Vals {
		vals[i] = int64(v)
	}
	return serve.Answer{
		Vals: vals, P: a.P,
		Lo: a.Res.Lo, Hi: a.Res.Hi,
		Exact: a.Res.Exact, Converged: a.Res.Converged,
		DecidedAtStep: a.DecidedAtStep,
	}
}

// compileWire recursively translates a wire node into a fluent-builder
// chain on sess. Wire-shape violations (no operator, several at once,
// an unknown filter op) are reported as BuildErrors too, so the service
// surfaces one uniform error vocabulary; everything the builder itself
// validates — unknown relations, out-of-range columns, ranking
// placement — is left to Build.
func compileWire(sess *Session, n *serve.Node) (*Query, error) {
	if n == nil {
		return nil, &BuildError{Op: "wire", Reason: "missing query node"}
	}
	set := 0
	for _, on := range []bool{
		n.Scan != "", n.Where != nil, n.Join != nil, n.JoinLess != nil,
		n.Project != nil, n.GroupLineage != nil, n.TopK != nil, n.Threshold != nil,
	} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, &BuildError{Op: "wire", Reason: fmt.Sprintf("a query node must set exactly one operator, got %d", set)}
	}
	sub := func(in *serve.Node) (*Query, error) { return compileWire(sess, in) }
	switch {
	case n.Scan != "":
		return sess.Query(n.Scan), nil
	case n.Where != nil:
		in, err := sub(n.Where.Input)
		if err != nil {
			return nil, err
		}
		pred, err := wherePred(in, n.Where)
		if err != nil {
			return nil, err
		}
		return in.Select(pred), nil
	case n.Join != nil:
		l, err := sub(n.Join.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(n.Join.Right)
		if err != nil {
			return nil, err
		}
		return l.Join(r, n.Join.LeftCol, n.Join.RightCol), nil
	case n.JoinLess != nil:
		l, err := sub(n.JoinLess.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(n.JoinLess.Right)
		if err != nil {
			return nil, err
		}
		return l.JoinLess(r, n.JoinLess.LeftCol, n.JoinLess.RightCol), nil
	case n.Project != nil:
		in, err := sub(n.Project.Input)
		if err != nil {
			return nil, err
		}
		return in.Project(n.Project.Cols...), nil
	case n.GroupLineage != nil:
		in, err := sub(n.GroupLineage.Input)
		if err != nil {
			return nil, err
		}
		return in.GroupLineage(n.GroupLineage.Cols...), nil
	case n.TopK != nil:
		in, err := sub(n.TopK.Input)
		if err != nil {
			return nil, err
		}
		return in.TopK(n.TopK.K), nil
	default:
		in, err := sub(n.Threshold.Input)
		if err != nil {
			return nil, err
		}
		return in.Threshold(n.Threshold.Tau), nil
	}
}

// wherePred compiles a wire filter into a tuple predicate. The column
// is validated here against the input schema — the predicate closure
// indexes tuples at evaluation time, far from any validation the
// builder could do on an opaque func.
func wherePred(in *Query, w *serve.Where) (func([]pdb.Value) bool, error) {
	if sch := in.Schema(); sch != nil && (w.Col < 0 || w.Col >= len(sch)) {
		return nil, &BuildError{Op: "wire", Reason: fmt.Sprintf("where column %d out of range [0, %d)", w.Col, len(sch))}
	}
	col, val := w.Col, pdb.Value(w.Value)
	switch w.Op {
	case "eq":
		return func(v []pdb.Value) bool { return v[col] == val }, nil
	case "ne":
		return func(v []pdb.Value) bool { return v[col] != val }, nil
	case "lt":
		return func(v []pdb.Value) bool { return v[col] < val }, nil
	case "le":
		return func(v []pdb.Value) bool { return v[col] <= val }, nil
	case "gt":
		return func(v []pdb.Value) bool { return v[col] > val }, nil
	case "ge":
		return func(v []pdb.Value) bool { return v[col] >= val }, nil
	default:
		return nil, &BuildError{Op: "wire", Reason: fmt.Sprintf("unknown where op %q (want eq, ne, lt, le, gt or ge)", w.Op)}
	}
}
