package engine

// This file is the context-aware query API: QueryContext/PrepareContext/
// ExplainContext with functional options, span tracing across the Figure
// 2/3 pipeline, and the database-wide metrics snapshot. The legacy
// Query/QueryWith/Explain methods in engine.go are thin wrappers over
// these.

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/obs"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
)

// QueryOption configures one QueryContext/PrepareContext/ExplainContext
// call.
type QueryOption func(*queryConfig)

type queryConfig struct {
	strategy  Strategy
	tracer    obs.Tracer
	rowLimit  int64
	snapshots bool
	// args are the values bound to the query's `?` placeholders; hasArgs
	// records that WithArgs was used (so a binding-count mismatch fails at
	// prepare time rather than on first execute); argsErr carries a WithArgs
	// conversion failure to the first prepare call (the option signature
	// cannot return an error).
	args    datum.Row
	hasArgs bool
	argsErr error
	// memLimit overrides the database default per-query memory budget when
	// hasMemLimit is set; noAdmission bypasses admission control.
	memLimit    int64
	hasMemLimit bool
	noAdmission bool
	// forceEMST skips the cost comparison and executes the magic plan.
	forceEMST bool
	// planParams is the binding a selectivity-class plan is optimized for
	// (see bound.go); nil for a prepare-time plan.
	planParams datum.Row
}

// WithStrategy selects the optimization/execution strategy (default EMST).
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithArgs binds values to the query's `?` placeholders in left-to-right
// order. Supported Go types: nil, bool, int, int32, int64, float32, float64,
// string, and datum.D. A parameterized plan — including the magic seed the
// EMST transformation installs — is correct for every binding, so one cached
// entry serves them all; an execution runs the entry's plan made for its
// binding's selectivity class (see bound.go).
func WithArgs(args ...any) QueryOption {
	row, err := toDatumRow(args)
	return func(c *queryConfig) { c.args, c.hasArgs, c.argsErr = row, true, err }
}

// toDatumRow converts user-supplied bindings to datum values.
func toDatumRow(args []any) (datum.Row, error) {
	if len(args) == 0 {
		return nil, nil
	}
	row := make(datum.Row, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			row[i] = datum.Null()
		case datum.D:
			row[i] = v
		case bool:
			row[i] = datum.Bool(v)
		case int:
			row[i] = datum.Int(int64(v))
		case int32:
			row[i] = datum.Int(int64(v))
		case int64:
			row[i] = datum.Int(v)
		case float32:
			row[i] = datum.Float(float64(v))
		case float64:
			row[i] = datum.Float(v)
		case string:
			row[i] = datum.String(v)
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T (want int, float, string, bool, nil, or datum.D)", i+1, a)
		}
	}
	return row, nil
}

// WithTracer installs a span tracer for this call. Every pipeline phase —
// parse, bind, phase1, plan-opt1, phase2 (EMST), phase3 (simplify),
// plan-opt2, execute — emits one span. The default (nil) tracer is a no-op
// whose per-phase cost is one nil check.
func WithTracer(t obs.Tracer) QueryOption {
	return func(c *queryConfig) { c.tracer = t }
}

// WithRowLimit bounds the executor's total produced rows (a runaway-query
// guard for serving concurrent traffic, not a LIMIT clause): evaluation
// aborts with an error once the budget is exceeded. 0 means unlimited.
func WithRowLimit(n int64) QueryOption {
	return func(c *queryConfig) { c.rowLimit = n }
}

// WithMemoryLimit caps this call's resident operator state at n bytes,
// overriding the database-wide SetMemoryLimit per-query default (0 removes
// the cap for this call even if a default is set). Under the cap,
// spill-capable operators — hash-join builds, sorts, DISTINCT and group-by
// state, set-operation counts, recursive seen-sets — page state to
// temporary files instead of failing; a query whose working set cannot
// spill below the cap fails with resource.ErrMemoryExceeded.
func WithMemoryLimit(n int64) QueryOption {
	return func(c *queryConfig) { c.memLimit = n; c.hasMemLimit = true }
}

// WithAdmission controls whether this execution passes through the
// database's admission queue (default true). WithAdmission(false) exempts
// the call — useful for administrative or monitoring queries that must not
// wait behind a saturated queue. It has no effect when SetAdmission has not
// configured a cap.
func WithAdmission(enabled bool) QueryOption {
	return func(c *queryConfig) { c.noAdmission = !enabled }
}

// WithForceEMST executes the post-EMST (magic) plan even when the §3.2 cost
// comparison prefers the untransformed one. It is an A/B instrument: running
// the same query with and without it measures what the optimizer's choice
// actually saved. EMST strategy only; other strategies ignore it.
func WithForceEMST() QueryOption {
	return func(c *queryConfig) { c.forceEMST = true }
}

func newQueryConfig(opts []QueryOption) queryConfig {
	cfg := queryConfig{strategy: EMST}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// QueryContext optimizes and executes a SELECT under ctx: cancellation and
// deadlines are honored between pipeline stages and — amortized, every few
// hundred rows — inside the executor's scan/join/recursion loops, returning
// ctx.Err() promptly. Options select strategy, tracing, and row budget.
func (db *Database) QueryContext(ctx context.Context, query string, opts ...QueryOption) (*Result, error) {
	p, err := db.PrepareContext(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	return p.ExecuteContext(ctx)
}

// ExplainContext runs the optimization pipeline without executing and
// returns the structured account: per-phase timings and QGM snapshots,
// rule-fire counts, the cost comparison, and the chosen plan's join orders.
func (db *Database) ExplainContext(ctx context.Context, query string, opts ...QueryOption) (*ExplainInfo, error) {
	opts = append(opts[:len(opts):len(opts)], func(c *queryConfig) { c.snapshots = true })
	p, err := db.PrepareContext(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	return p.Explain(), nil
}

// PrepareContext parses, binds and optimizes a query for repeated
// execution. The returned Prepared is safe for concurrent ExecuteContext
// calls: each run uses a fresh evaluator.
func (db *Database) PrepareContext(ctx context.Context, query string, opts ...QueryOption) (*Prepared, error) {
	cfg := newQueryConfig(opts)
	p, err := db.prepare(ctx, query, cfg)
	if err == nil && cfg.hasArgs && len(cfg.args) != p.numParams {
		// Fail fast: a WithArgs binding-count mismatch can never execute, so
		// surface it here instead of on the first ExecuteContext.
		err = fmt.Errorf("WithArgs: %w", &ParamCountError{Want: p.numParams, Got: len(cfg.args)})
	}
	if err != nil {
		db.metrics.RecordPlan(obs.PlanSample{Err: true, Strategy: cfg.strategy.String()})
		return nil, err
	}
	if p.explain.CacheStatus == "hit" {
		// The stored optimization already contributed its cost and rule
		// fires when it was prepared cold; count only the prepare call.
		db.metrics.RecordPlan(obs.PlanSample{
			Strategy: cfg.strategy.String(),
			CacheHit: true,
			UsedEMST: p.info.UsedEMST,
		})
		return p, nil
	}
	db.recordOptimization(p)
	return p, nil
}

// recordOptimization feeds the metrics sink one optimizer run: p's costs,
// optimization time and rule fires.
func (db *Database) recordOptimization(p *Prepared) {
	db.metrics.RecordPlan(obs.PlanSample{
		Strategy:       p.strategy.String(),
		EMSTConsidered: p.strategy == EMST,
		UsedEMST:       p.info.UsedEMST,
		CostBefore:     p.info.CostBefore,
		CostAfter:      p.info.CostAfter,
		OptimizeNanos:  int64(p.info.OptimizeTime),
		RuleFires:      p.ruleFires,
	})
}

// prepare is the front door for every PrepareContext/QueryContext/
// ExplainContext call: it freshens statistics — double-checked on an atomic
// flag, so the hot path never takes the write lock when stats are clean —
// then serves the plan from the cache or optimizes it cold. Tracer-bearing
// calls bypass the cache: their value is the spans the live pipeline emits.
func (db *Database) prepare(ctx context.Context, query string, cfg queryConfig) (*Prepared, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.argsErr != nil {
		return nil, fmt.Errorf("WithArgs: %w", cfg.argsErr)
	}
	// Capture the epoch under which statistics are known fresh: load the
	// epoch, freshen stats if dirty, and retry if a DDL or ANALYZE slipped
	// into that window (only those bump the epoch — DML merely marks stats
	// dirty, since plans read rows through MVCC snapshots and stay valid).
	// Plans are cached under this validated epoch — never under an epoch
	// newer than the statistics they were optimized with, which would let a
	// stale-stats plan survive until the next schema change.
	var epoch uint64
	for {
		epoch = db.epoch.Load()
		if db.statsDirty.Load() {
			db.mu.Lock()
			if db.statsDirty.Load() {
				db.analyzeLocked()
			}
			db.mu.Unlock()
		}
		if db.epoch.Load() == epoch {
			break
		}
	}
	if !db.plans.enabled() || cfg.tracer != nil {
		p, err := db.prepareCold(ctx, query, cfg, epoch)
		if err != nil {
			return nil, err
		}
		p.explain.CacheStatus = "bypass"
		p.explain.CacheEpoch = epoch
		return p, nil
	}
	return db.prepareCached(ctx, query, cfg, epoch)
}

// prepareCold runs the full parse→bind→optimize→lower pipeline under the
// read lock. The plan cache calls it on a miss; bypassing calls reach it
// directly, and so do the selectivity-class plans of bound.go, with their
// binding in cfg.planParams. epoch is the catalog epoch the statistics were
// validated under; the text's class plans are made only while it holds.
func (db *Database) prepareCold(ctx context.Context, query string, cfg queryConfig, epoch uint64) (*Prepared, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	explain := &ExplainInfo{Query: query, Strategy: cfg.strategy}
	// timed wraps the pre-pipeline phases (parse, bind) in a span and a
	// phase entry.
	timed := func(name string, f func() error) error {
		sp := obs.Start(cfg.tracer, name)
		start := time.Now()
		err := f()
		sp.End()
		explain.Phases = append(explain.Phases, core.Phase{Name: name, Duration: time.Since(start)})
		return err
	}

	var q sql.QueryExpr
	if err := timed("parse", func() (err error) {
		q, err = sql.ParseQuery(query)
		return err
	}); err != nil {
		return nil, err
	}
	var g *qgm.Graph
	if err := timed("bind", func() (err error) {
		g, err = semant.NewBuilder(db.cat).Build(q)
		return err
	}); err != nil {
		return nil, err
	}

	visible := len(g.Top.Output) - g.HiddenCols
	cols := make([]string, visible)
	for i := 0; i < visible; i++ {
		cols[i] = g.Top.Output[i].Name
	}
	numParams := g.NumParams
	explain.Params = numParams

	noHist := db.noHist.Load()
	start := time.Now()
	res, err := core.Optimize(g, core.Options{
		Strategy:  cfg.strategy,
		Snapshots: cfg.snapshots,
		Ctx:       ctx,
		Tracer:    cfg.tracer,
		NoHist:    noHist,
		ForceEMST: cfg.forceEMST,
		Params:    cfg.planParams,
	})
	if err != nil {
		return nil, err
	}
	info := planInfo(cfg.strategy, res, start)
	g = res.Graph
	if err := g.Check(); err != nil {
		return nil, fmt.Errorf("engine: optimized graph invalid: %w", err)
	}
	explain.Phases = append(explain.Phases, res.Phases...)
	explain.Rules = res.RuleStats
	explain.CostBefore, explain.CostAfter = res.CostBefore, res.CostAfter
	explain.UsedEMST = res.UsedEMST
	explain.PlansConsidered = res.PlansConsidered
	explain.JoinOrders = joinOrders(g)
	explain.Physical = res.Physical.String()
	explain.Operators = res.Physical.Report(nil)
	if cfg.snapshots {
		explain.PlanDOT = g.DumpDOT("executed plan")
	}
	ruleFires := map[string]int64{}
	for _, r := range explain.Rules {
		if r.Fires > 0 {
			ruleFires[r.Rule] = r.Fires
		}
	}
	p := &Prepared{
		db:        db,
		phys:      res.Physical,
		columns:   cols,
		numParams: numParams,
		strategy:  cfg.strategy,
		cfg:       cfg,
		info:      info,
		explain:   explain,
		ruleFires: ruleFires,
		epoch:     epoch,
		replan:    new(atomic.Pointer[Prepared]),
	}
	if numParams > 0 && cfg.planParams == nil && db.plans.enabled() {
		p.bound = newBoundPlans(cacheKey(query, cfg), g, noHist)
		explain.BindingPlans = p.bound != nil
	}
	return p, nil
}

// planInfo is the optimization half of a plan's account; start is when
// core.Optimize was entered.
func planInfo(strategy Strategy, res *core.Result, start time.Time) PlanInfo {
	return PlanInfo{
		Strategy:        strategy,
		UsedEMST:        res.UsedEMST,
		CostBefore:      res.CostBefore,
		CostAfter:       res.CostAfter,
		PlansConsidered: res.PlansConsidered,
		OptimizeTime:    time.Since(start),
	}
}

// ExecuteContext runs the prepared plan with a fresh evaluator under ctx.
// Counters in the returned Result are this run's alone (they reset between
// executions), so repeated runs are directly comparable. The streaming
// executor runs the lowered physical plan and the result carries
// per-operator counters. Optional args bind the query's `?` placeholders
// for this run only, overriding WithArgs values captured at prepare time;
// the run uses the plan made for the binding's selectivity class when the
// text has one.
func (p *Prepared) ExecuteContext(ctx context.Context, args ...any) (*Result, error) {
	r, err := p.ExecuteRows(ctx, args...)
	if err != nil {
		return nil, err
	}
	var rows []datum.Row
	for r.Next() {
		rows = append(rows, r.Row())
	}
	if err := r.Err(); err != nil {
		_ = r.Close()
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return &Result{Columns: p.columns, Rows: rows, Plan: *r.Plan()}, nil
}

// current returns the plan an execution of p runs. A plan runs only against
// the tables it was made for, so once DDL or ANALYZE has advanced the
// catalog epoch past p's, the text is prepared again — through the plan
// cache, once per epoch and handle — and that plan runs instead. The
// execution fails if the result columns changed: Columns and a wire
// statement's column definitions have already been handed out.
func (p *Prepared) current(ctx context.Context) (*Prepared, error) {
	epoch := p.db.epoch.Load()
	if p.epoch == epoch {
		return p, nil
	}
	if q := p.replan.Load(); q != nil && q.epoch == epoch {
		return q, nil
	}
	q, err := p.db.prepare(ctx, p.explain.Query, p.cfg)
	if err != nil {
		return nil, err
	}
	if q.explain.CacheStatus != "hit" {
		p.db.recordOptimization(q)
	}
	if !slices.Equal(q.columns, p.columns) {
		return nil, fmt.Errorf("result columns changed from %v to %v since the statement was prepared", p.columns, q.columns)
	}
	p.replan.Store(q)
	return q, nil
}

// Explain returns the structured optimization account captured when the
// plan was prepared (QGM snapshots included only when the plan was prepared
// through ExplainContext).
func (p *Prepared) Explain() *ExplainInfo { return p.explain }

// Metrics returns a snapshot of database-wide activity: plan and query
// volume, EMST cost-comparison outcomes, cumulative executor counters,
// rewrite-rule fire counts, the engine-wide string-intern table, and — for
// durable databases — write-ahead-log, checkpoint, and recovery counters.
func (db *Database) Metrics() obs.Metrics {
	m := db.metrics.Snapshot()
	is := db.store.Intern().Stats()
	m.Intern = obs.InternStats{
		Strings: is.Strings, Bytes: is.Bytes, Hits: is.Hits, Misses: is.Misses,
	}
	m.WAL = db.walStats()
	return m
}

// ResetMetrics zeroes the database-wide metrics.
func (db *Database) ResetMetrics() { db.metrics.Reset() }

// execStats copies executor counters into the dependency-free obs form.
func execStats(c exec.Counters) obs.ExecStats {
	return obs.ExecStats{
		BaseRows:      c.BaseRows,
		BoxEvals:      c.BoxEvals,
		SubqueryEvals: c.SubqueryEvals,
		HashBuilds:    c.HashBuilds,
		HashProbes:    c.HashProbes,
		IndexLookups:  c.IndexLookups,
		OutputRows:    c.OutputRows,
	}
}
