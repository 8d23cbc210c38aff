// Package engine glues the layers into a database: SQL in, rows out. It
// owns the catalog and storage, executes DDL and INSERT statements, and
// runs queries under one of the three strategies the paper's Table 1
// compares — Original (phase-1 rewrite only), Correlated (views evaluated
// per outer row), and EMST (the full three-phase magic pipeline with the
// cost-comparison guarantee). It is the executable form of the paper's
// Figure 2 architecture.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starmagic/internal/catalog"
	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/obs"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/resource"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
	"starmagic/internal/wal"
)

// Strategy selects how a query is optimized and executed: which branch of
// core.Optimize runs.
type Strategy = core.Strategy

// Strategies (the three columns of the paper's Table 1).
const (
	EMST       = core.EMST
	Original   = core.Original
	Correlated = core.Correlated
)

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "emst", "magic":
		return EMST, nil
	case "original", "orig":
		return Original, nil
	case "correlated", "corr":
		return Correlated, nil
	}
	return EMST, fmt.Errorf("unknown strategy %q (want emst, original, or correlated)", name)
}

// Database is an embedded starmagic instance. It is safe for concurrent
// use: DDL and data loading serialize behind a write lock; queries share a
// read lock (each execution uses its own evaluator state).
type Database struct {
	mu    sync.RWMutex
	cat   *catalog.Catalog
	store *storage.Store
	// statsDirty triggers re-ANALYZE before the next optimization. It is
	// atomic so the prepare hot path can check it without taking the write
	// lock (double-checked: the lock is acquired only when it reads true).
	statsDirty atomic.Bool
	// epoch is the catalog epoch: it advances on schema changes and
	// explicit ANALYZE — the events that can invalidate a cached plan's
	// shape — and plan-cache entries prepared under earlier epochs are not
	// reused. DML does not advance it: under MVCC, data changes only dirty
	// statistics (plans stay structurally valid and visibility is the
	// snapshot's job, not the cache's).
	epoch atomic.Uint64
	// commitTS is the global commit clock: transactions snapshot it at
	// Begin and Commit advances it after stamping the write set.
	commitTS atomic.Uint64
	// txnSeq allocates transaction ids (storage.TxnIDBit | seq).
	txnSeq atomic.Uint64
	// commitMu serializes commit stamping against the clock advance.
	commitMu sync.Mutex
	// afterStamp, when set, runs inside the commit critical section between
	// resolving a transaction's markers and logging it. It exists for the
	// regression test of that window (a vacuum there used to invalidate the
	// positions the log record was read from) and is nil in production.
	afterStamp func()
	// snapMu guards snaps, the refcounts of live snapshot timestamps; the
	// minimum key is the vacuum horizon.
	snapMu sync.Mutex
	snaps  map[uint64]int
	// garbage estimates reclaimable row versions; crossing vacuumThreshold
	// triggers a background vacuum (vacuumBusy keeps passes from stacking,
	// vacuumWG lets Close wait one out).
	garbage    atomic.Int64
	vacuumBusy atomic.Bool
	vacuumWG   sync.WaitGroup
	// wal is the write-ahead log of a durable database (nil when opened
	// in-memory with New; see OpenDir in durable.go). ckptMu serializes
	// checkpoints; ckptBusy/ckptWG schedule the background size-triggered
	// checkpoint the same way vacuumBusy/vacuumWG schedule vacuum;
	// ckptThreshold is the segment size that arms the trigger.
	wal           *wal.Log
	ckptMu        sync.Mutex
	ckptBusy      atomic.Bool
	ckptWG        sync.WaitGroup
	ckptThreshold atomic.Int64
	// recoveryNanos/recoveryRecords describe what OpenDir replayed (fixed
	// after open; surfaced via Metrics and RecoveryStats).
	recoveryNanos   int64
	recoveryRecords int64
	// plans caches prepared plans by normalized SQL + strategy (see cache.go).
	plans *planCache
	// metrics accumulates plan and execution samples (see Metrics).
	metrics obs.MetricsSink
	// gov enforces the engine-wide memory cap and admission control across
	// all executions (see SetMemoryLimit, SetAdmission).
	gov *resource.Governor
	// memLimit is the default per-query memory budget (see SetMemoryLimit);
	// WithMemoryLimit overrides it per call.
	memLimit atomic.Int64
	// noVec disables the vectorized select operator (see SetVectorized).
	// The zero value means vectorized execution is on.
	noVec atomic.Bool
	// noHist makes estimators ignore column histograms (see SetHistograms);
	// the zero value means histograms are used.
	noHist atomic.Bool
}

// New returns an empty database. The plan cache starts enabled; no memory or
// admission limits are set.
func New() *Database {
	return &Database{
		cat:   catalog.New(),
		store: storage.NewStore(),
		plans: newPlanCache(0),
		gov:   resource.NewGovernor(),
	}
}

// Catalog exposes the schema directory (read-mostly; use Exec for DDL).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Store exposes the storage layer for bulk loading.
func (db *Database) Store() *storage.Store { return db.store }

// SetMemoryLimit configures memory governance: perQuery caps each
// execution's resident operator state (hash tables, sort buffers, distinct
// and group-by state, recursive seen-sets) and total caps the sum across all
// concurrent executions. 0 disables the respective cap. Under a cap,
// spill-capable operators move state to temporary files instead of failing;
// state that cannot spill surfaces resource.ErrMemoryExceeded (detect with
// errors.Is) rather than exhausting process memory. WithMemoryLimit
// overrides the per-query cap for one call.
func (db *Database) SetMemoryLimit(perQuery, total int64) {
	if perQuery < 0 {
		perQuery = 0
	}
	db.memLimit.Store(perQuery)
	db.gov.SetTotalLimit(total)
}

// SetAdmission configures admission control: at most maxConcurrent query
// executions run at once, and at most maxQueue more wait (FIFO) for a slot.
// Executions beyond both caps — and executions whose context is already done
// when they reach the queue — fail with resource.ErrAdmissionRejected or the
// context's error instead of piling up. maxConcurrent <= 0 disables
// admission control. Admission applies to execution only: preparing a plan
// (and plan-cache interaction, including single-flight misses) never queues.
func (db *Database) SetAdmission(maxConcurrent, maxQueue int) {
	db.gov.SetAdmission(maxConcurrent, maxQueue)
}

// SetVectorized toggles the vectorized select operator for subsequent
// executions. It is on by default: eligible select plans (see the
// [vectorizable] marker in EXPLAIN) run over typed column batches with
// interned string keys instead of row-at-a-time streaming. Turning it off
// forces every plan onto the row pipeline; results are identical either
// way, so the switch exists for A/B benchmarking and as an escape hatch.
func (db *Database) SetVectorized(on bool) {
	db.noVec.Store(!on)
}

// SetHistograms toggles histogram-backed selectivity estimation (on by
// default). Off, the optimizer reverts to flat defaults — the pre-adaptive
// cost model — which exists for A/B comparisons of plan choices on skewed
// data. The plan cache is purged so the change takes effect immediately.
func (db *Database) SetHistograms(on bool) {
	db.noHist.Store(!on)
	db.plans.purge()
}

// HistogramsEnabled reports whether estimators consult column histograms.
func (db *Database) HistogramsEnabled() bool { return !db.noHist.Load() }

// ResourceStats returns a snapshot of the memory governor and admission
// queue: bytes reserved and spilled, high-water marks, and admission
// wait/reject counters.
func (db *Database) ResourceStats() resource.GovernorStats { return db.gov.Stats() }

// Close shuts the database down: queued executions are rejected, new
// executions fail with resource.ErrClosed, and Close blocks until admitted
// executions drain (only executions that went through admission control are
// tracked, so that part is a no-op unless SetAdmission configured a cap)
// and until any in-flight background vacuum or checkpoint pass finishes.
// On a durable database (OpenDir) the write-ahead log is then flushed,
// fsynced, and closed, so a clean shutdown loses nothing under any
// durability policy; further commits fail with wal.ErrClosed. The in-memory
// catalog and storage remain readable.
func (db *Database) Close() error {
	db.gov.Close()
	db.vacuumWG.Wait()
	db.ckptWG.Wait()
	if db.wal == nil {
		return nil
	}
	// Durable databases also flush and fsync the write-ahead log before the
	// segment file closes, so even under SyncNever nothing buffered is lost
	// to a clean shutdown.
	return db.wal.Close()
}

// Exec runs a script of DDL/DML statements separated by semicolons and
// returns the number of rows affected. Each DML statement runs as its own
// autocommit transaction (use Begin for multi-statement transactions); DDL
// statements serialize behind the database write lock as before.
func (db *Database) Exec(script string) (int64, error) {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, st := range stmts {
		n, err := db.execStmt(st)
		affected += n
		if err != nil {
			return affected, err
		}
	}
	return affected, nil
}

func (db *Database) execStmt(st sql.Statement) (int64, error) {
	if n := sql.CountParams(st); n > 0 {
		return 0, fmt.Errorf("statement uses %d parameter placeholder(s); parameters (?) are only supported in queries (use WithArgs)", n)
	}
	switch st.(type) {
	case *sql.Insert, *sql.Delete, *sql.Update:
		return db.autocommit(st)
	case *sql.SelectStatement:
		return 0, fmt.Errorf("use Query for SELECT statements")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	n, err := db.execDDL(st)
	if err == nil {
		// Schema changes are logged as SQL text and made durable before the
		// statement returns, whatever the commit fsync policy: DDL is rare
		// and losing one desynchronizes every later record on its table.
		err = db.logDDL(st)
	}
	return n, err
}

// execDDL handles schema statements under the database write lock.
func (db *Database) execDDL(st sql.Statement) (int64, error) {
	switch s := st.(type) {
	case *sql.CreateTable:
		return 0, db.createTable(s)
	case *sql.CreateView:
		// Register first so the body may reference the view itself
		// (recursive views), then validate. Unresolved table references are
		// tolerated — they may be forward references to views defined later
		// (mutual recursion); every other error rejects the definition.
		if err := db.cat.AddView(&catalog.View{Name: s.Name, Columns: s.Cols, SQL: s.SQL}); err != nil {
			return 0, err
		}
		if _, err := semant.NewBuilder(db.cat).Build(s.Query); err != nil {
			var nf *semant.NotFoundError
			if errors.As(err, &nf) && nf.Kind == "table" {
				db.epoch.Add(1)
				return 0, nil // deferred: resolved at first use
			}
			_ = db.cat.DropView(s.Name)
			return 0, fmt.Errorf("view %s: %w", s.Name, err)
		}
		db.epoch.Add(1)
		return 0, nil
	case *sql.CreateIndex:
		return 0, db.createIndex(s)
	case *sql.DropView:
		if err := db.cat.DropView(s.Name); err != nil {
			return 0, err
		}
		db.epoch.Add(1)
		return 0, nil
	case *sql.DropTable:
		if err := db.cat.DropTable(s.Name); err != nil {
			return 0, err
		}
		db.store.Drop(s.Name)
		db.statsDirty.Store(true)
		db.epoch.Add(1)
		db.store.MaybeCompactIntern()
		return 0, nil
	}
	return 0, fmt.Errorf("unsupported statement %T", st)
}

func (db *Database) createTable(s *sql.CreateTable) error {
	t := &catalog.Table{Name: s.Name}
	for _, c := range s.Cols {
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Type})
	}
	resolve := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			ord := t.ColumnIndex(n)
			if ord < 0 {
				return nil, fmt.Errorf("table %s: unknown key column %q", s.Name, n)
			}
			out[i] = ord
		}
		return out, nil
	}
	if len(s.PrimaryKey) > 0 {
		pk, err := resolve(s.PrimaryKey)
		if err != nil {
			return err
		}
		t.Keys = append(t.Keys, pk)
		t.Indexes = append(t.Indexes, pk)
	}
	for _, u := range s.Uniques {
		cols, err := resolve(u)
		if err != nil {
			return err
		}
		t.Keys = append(t.Keys, cols)
		t.Indexes = append(t.Indexes, cols)
	}
	if err := db.cat.AddTable(t); err != nil {
		return err
	}
	db.store.Create(t)
	db.epoch.Add(1)
	return nil
}

func (db *Database) createIndex(s *sql.CreateIndex) error {
	t, ok := db.cat.Table(s.Table)
	if !ok {
		return fmt.Errorf("table %q not found", s.Table)
	}
	cols := make([]int, len(s.Cols))
	for i, n := range s.Cols {
		ord := t.ColumnIndex(n)
		if ord < 0 {
			return fmt.Errorf("table %s: unknown column %q", s.Table, n)
		}
		cols[i] = ord
	}
	if t.HasIndex(cols) {
		return nil
	}
	t.Indexes = append(t.Indexes, cols)
	if s.Unique {
		t.Keys = append(t.Keys, cols)
	}
	// Build the index in place over the existing versions (dead ones are
	// filtered by visibility at lookup). No storage rebuild: positions held
	// by in-flight transactions stay valid.
	rel, _ := db.store.Relation(s.Table)
	rel.AddIndex(cols)
	db.epoch.Add(1)
	return nil
}

// compileRowExpr binds an expression against a single table's columns and
// returns an evaluator over stored rows. Subqueries are rejected (DML
// predicates are row-local).
func (db *Database) compileRowExpr(table *catalog.Table, e sql.Expr) (func(datum.Row) (datum.D, error), error) {
	// Build a throwaway single-table graph to reuse name resolution.
	sel := &sql.Select{
		Items: []sql.SelectItem{{Expr: e, Alias: "x"}},
		From:  []sql.TableRef{{Table: table.Name}},
		Limit: -1,
	}
	g, err := semant.NewBuilder(db.cat).Build(sel)
	if err != nil {
		return nil, err
	}
	top := g.Top
	if len(top.Quantifiers) != 1 || top.Quantifiers[0].Type != qgm.ForEach {
		return nil, fmt.Errorf("subqueries are not supported in DELETE/UPDATE expressions")
	}
	q := top.Quantifiers[0]
	if q.Ranges.Kind != qgm.KindBaseTable {
		return nil, fmt.Errorf("DELETE/UPDATE require a base table, not a view")
	}
	expr := top.Output[0].Expr
	return func(row datum.Row) (datum.D, error) {
		return exec.EvalExpr(expr, exec.Env{q: row})
	}, nil
}

// evalConstExpr evaluates a constant INSERT expression (literals, unary
// minus, arithmetic).
func evalConstExpr(e sql.Expr) (datum.D, error) {
	switch x := e.(type) {
	case *sql.Lit:
		return x.Value, nil
	case *sql.Unary:
		if x.Op == sql.OpNeg {
			v, err := evalConstExpr(x.X)
			if err != nil {
				return datum.Null(), err
			}
			return datum.Neg(v)
		}
	case *sql.Bin:
		l, err := evalConstExpr(x.L)
		if err != nil {
			return datum.Null(), err
		}
		r, err := evalConstExpr(x.R)
		if err != nil {
			return datum.Null(), err
		}
		switch x.Op {
		case sql.OpAdd:
			return datum.Arith(datum.Add, l, r)
		case sql.OpSub:
			return datum.Arith(datum.Sub, l, r)
		case sql.OpMul:
			return datum.Arith(datum.Mul, l, r)
		case sql.OpDiv:
			return datum.Arith(datum.Div, l, r)
		}
	}
	return datum.Null(), fmt.Errorf("INSERT values must be constant expressions, got %T", e)
}

// InsertRows bulk-loads rows through the Go API (faster than INSERT text).
// The load is one transaction: on error nothing is visible.
func (db *Database) InsertRows(table string, rows []datum.Row) error {
	t := db.Begin()
	db.mu.RLock()
	rel, ok := db.store.Relation(table)
	if !ok {
		db.mu.RUnlock()
		_ = t.Rollback()
		return fmt.Errorf("table %q not found", table)
	}
	var err error
	for _, r := range rows {
		if err = t.stageAppend(rel, r); err != nil {
			break
		}
	}
	db.mu.RUnlock()
	if err != nil {
		_ = t.Rollback()
		return err
	}
	return t.Commit()
}

// Analyze recomputes optimizer statistics for every table. An explicit
// ANALYZE advances the catalog epoch (fresh statistics can change plan
// choices); the implicit analyze on the prepare path does not: DML only
// marks statistics dirty, and plans made before the refresh stay valid for
// every snapshot.
func (db *Database) Analyze() {
	db.mu.Lock()
	db.analyzeLocked()
	db.mu.Unlock()
	db.epoch.Add(1)
}

func (db *Database) analyzeLocked() {
	for _, t := range db.cat.Tables() {
		if rel, ok := db.store.Relation(t.Name); ok {
			catalog.AnalyzeTable(t, rel.Rows())
		}
	}
	db.statsDirty.Store(false)
}

// Result is a query result.
type Result struct {
	Columns []string
	Rows    []datum.Row
	Plan    PlanInfo
}

// PlanInfo reports how the query was optimized and executed.
type PlanInfo struct {
	Strategy        Strategy
	UsedEMST        bool
	CostBefore      float64
	CostAfter       float64
	PlansConsidered int
	Counters        exec.Counters
	OptimizeTime    time.Duration
	ExecTime        time.Duration
	// Mem is the run's memory-governance footprint; the zero value means
	// the run executed without a budget.
	Mem MemInfo
	// AdmissionWait is the time the run spent queued for an admission slot
	// (0 when admission control is off or a slot was free).
	AdmissionWait time.Duration
	// MaxQError is the run's worst per-operator estimate-vs-actual q-error
	// (max(est/actual, actual/est); 1.0 = perfect, 0 = not measured). It is
	// reported only: the plan stays fixed for its catalog epoch.
	MaxQError float64

	// phys and stats are the executed plan and its per-node statistics,
	// kept so Physical renders on demand.
	phys  *plan.Plan
	stats []plan.OpStats
}

// Physical renders the physical operator tree with this run's per-operator
// rows/batches/time (EXPLAIN ANALYZE). It is empty for materialized
// (box-at-a-time) runs and before the run finalizes.
func (p PlanInfo) Physical() string {
	if p.phys == nil || p.stats == nil {
		return ""
	}
	return p.phys.Format(p.stats)
}

// Operators is the run's per-operator report (depth-first), the structured
// form of Physical, built on demand; empty for materialized (box-at-a-time)
// runs and before the run finalizes.
func (p PlanInfo) Operators() []plan.OpReport {
	if p.phys == nil || p.stats == nil {
		return nil
	}
	return p.phys.Report(p.stats)
}

// MemInfo is one budgeted execution's memory footprint.
type MemInfo struct {
	// LimitBytes is the per-query budget the run executed under.
	LimitBytes int64
	// PeakBytes is the reservation high-water mark; the governor guarantees
	// it never exceeds LimitBytes.
	PeakBytes int64
	// SpilledBytes and Spills count spill-to-disk traffic: bytes written
	// and discrete spill events (hash-partition page-outs, sort-run
	// flushes, row-buffer flushes).
	SpilledBytes int64
	Spills       int64
}

// Query optimizes and executes a SELECT under the default EMST strategy.
func (db *Database) Query(query string) (*Result, error) {
	return db.QueryContext(context.Background(), query)
}

// QueryWith optimizes and executes a SELECT under the given strategy.
func (db *Database) QueryWith(query string, strategy Strategy) (*Result, error) {
	return db.QueryContext(context.Background(), query, WithStrategy(strategy))
}

// Prepared is an optimized, re-executable query. It is safe for concurrent
// ExecuteContext/Execute calls: each run uses a fresh evaluator whose
// counters reset between runs.
type Prepared struct {
	db      *Database
	graph   *qgm.Graph
	phys    *plan.Plan
	columns []string
	// numParams is the number of `?` placeholders; every execution must
	// bind exactly this many values (WithArgs or Execute/ExecuteContext args).
	numParams int

	strategy Strategy
	cfg      queryConfig
	info     PlanInfo
	explain  *ExplainInfo
	// ruleFires feeds the metrics sink (fires-only subset of explain.Rules).
	ruleFires map[string]int64
	// bound picks the plan an execution's binding runs (see bound.go); nil
	// when no estimate reads a parameter. withConfig copies share it.
	bound *boundPlans
	// epoch is the catalog epoch the plan was prepared under.
	epoch uint64
	// replan is the text prepared again under a later epoch (see current);
	// withConfig copies share it.
	replan *atomic.Pointer[Prepared]
}

// Prepare parses, binds and optimizes a query for repeated execution.
func (db *Database) Prepare(query string, strategy Strategy) (*Prepared, error) {
	return db.PrepareContext(context.Background(), query, WithStrategy(strategy))
}

// Execute runs the prepared plan with a fresh evaluator. Optional args bind
// the query's `?` placeholders for this run, overriding any WithArgs values
// captured at prepare time.
func (p *Prepared) Execute(args ...any) (*Result, error) {
	return p.ExecuteContext(context.Background(), args...)
}

// Columns returns the result column names, known at prepare time — a wire
// server needs them to describe a statement before its first execution.
func (p *Prepared) Columns() []string { return p.columns }

// NumParams returns the number of `?` placeholders each execution must bind.
func (p *Prepared) NumParams() int { return p.numParams }

// Explain returns a human-readable account of the optimization: the QGM
// graph after each rewrite phase, per-phase timings, rule-fire counts, the
// costs, and the chosen plan — the textual equivalent of the paper's
// Figure 4 panels. Structured access is ExplainContext.
func (db *Database) Explain(query string, strategy Strategy) (string, error) {
	info, err := db.ExplainContext(context.Background(), query, WithStrategy(strategy))
	if err != nil {
		return "", err
	}
	return info.String(), nil
}
