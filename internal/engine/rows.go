package engine

// This file is the streaming result API: Rows is a pull cursor fed directly
// by the streaming executor's batch iterator, so result rows flow to the
// caller — or onto the wire, packet by packet — without the full result set
// ever materializing. ExecuteContext (and through it every materializing
// Query* entry point) is a thin drain-everything wrapper over RowsContext,
// so there is exactly one execution path.

import (
	"context"
	"fmt"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/obs"
	"starmagic/internal/plan"
	"starmagic/internal/resource"
	"starmagic/internal/storage"
)

// Rows is a streaming result cursor over one execution of a prepared plan:
// Columns, then Next/Row (or Scan) until Next returns false, then Err and
// Close. Next pulls 64-row batches from the streaming executor on demand, so
// a consumer that stops early (LIMIT satisfied client-side, a dropped
// connection) stops the operator spine with it and never pays for rows it
// does not read.
//
// Rows must be Closed (Close is idempotent; a fully drained cursor finalizes
// itself, making Close a no-op). Until finalized, the cursor holds its
// execution resources: the admission slot, the query's memory budget, and a
// registered MVCC snapshot. It holds no lock: the cursor reads a snapshot
// view of storage, so an open cursor never blocks writers — DML commits
// freely mid-stream and the cursor keeps returning the rows its snapshot
// saw. The registered snapshot only pins row versions against vacuum.
//
// Rows is not safe for concurrent use by multiple goroutines.
type Rows struct {
	p   *Prepared
	ctx context.Context
	// phys is the plan this execution runs: the prepared plan, or the one
	// made for its binding's class.
	phys *plan.Plan

	// iter streams the physical plan's batches into the cursor.
	iter *exec.PlanIter

	batch []datum.Row
	bi    int
	cur   datum.Row
	err   error

	// Execution state released at finalize.
	ev            *exec.Evaluator
	bud           *resource.Budget
	release       func() // admission slot (nil when not admitted)
	releaseSnap   func() // snapshot-registry entry (nil for txn cursors)
	sp            obs.Span
	start         time.Time
	admissionWait time.Duration

	finalized bool
	closed    bool
	info      PlanInfo
}

// ExecuteRows runs the prepared plan and returns a streaming cursor over its
// result. Optional args bind the query's `?` placeholders for this run only,
// overriding WithArgs values captured at prepare time. The returned cursor
// must be Closed; see Rows. The execution reads a fresh snapshot of the
// committed state acquired here.
func (p *Prepared) ExecuteRows(ctx context.Context, args ...any) (*Rows, error) {
	return p.executeRowsIn(ctx, nil, args...)
}

// ExecuteRowsIn is ExecuteRows inside a transaction: the cursor reads the
// transaction's snapshot plus its own staged writes. Close the cursor before
// Commit/Rollback.
func (p *Prepared) ExecuteRowsIn(ctx context.Context, t *Txn, args ...any) (*Rows, error) {
	return p.executeRowsIn(ctx, t, args...)
}

func (p *Prepared) executeRowsIn(ctx context.Context, t *Txn, args ...any) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t != nil && t.done {
		return nil, ErrTxnDone
	}
	bound := p.cfg.args
	if len(args) > 0 {
		b, err := toDatumRow(args)
		if err != nil {
			return nil, err
		}
		bound = b
	}
	if len(bound) != p.numParams {
		return nil, &ParamCountError{Want: p.numParams, Got: len(bound)}
	}
	cur, err := p.current(ctx)
	if err != nil {
		return nil, err
	}
	run := cur.bindingPlan(ctx, bound)
	r := &Rows{p: p, ctx: ctx, phys: run.phys, info: run.info}
	// Admission control gates execution only — the plan is already prepared
	// at this point, so a queued execution never holds plan-cache state (in
	// particular it cannot interact with a single-flight cold prepare).
	if p.db.gov.AdmissionEnabled() && !p.cfg.noAdmission {
		release, waited, err := p.db.gov.Admit(ctx)
		if err != nil {
			p.db.metrics.RecordAdmissionRejected()
			return nil, err
		}
		r.release = release
		r.admissionWait = waited
	}
	// Acquire the snapshot the execution reads. No lock is held while the
	// cursor streams: the view captures the versioned backing arrays, and
	// registering the snapshot timestamp keeps vacuum from reclaiming the
	// versions it can see.
	var view *storage.View
	if t != nil {
		view = t.view
	} else {
		ts := p.db.retainSnapshot()
		view = p.db.store.NewView(storage.Snap{TS: ts})
		r.releaseSnap = func() { p.db.releaseSnapshot(ts) }
	}

	ev := exec.New(p.db.store)
	ev.SetView(view)
	ev.Params = bound
	ev.SetContext(ctx)
	if p.cfg.rowLimit > 0 {
		ev.MaxRows = p.cfg.rowLimit
	}
	if p.strategy == Correlated {
		ev.NoSubqueryCache = true
	}
	ev.NoVec = p.db.noVec.Load()
	// A budget is attached when a per-query cap applies (option or database
	// default) or when an engine-wide total cap is set — the total cap is
	// enforced through each query's Budget reservations.
	memLimit := p.db.memLimit.Load()
	if p.cfg.hasMemLimit {
		memLimit = p.cfg.memLimit
	}
	if memLimit > 0 || p.db.gov.TotalLimit() > 0 {
		r.bud = resource.NewBudget(p.db.gov, memLimit, "")
		ev.Mem = r.bud
	}
	r.ev = ev
	r.sp = obs.Start(p.cfg.tracer, "execute")
	r.start = time.Now()

	it, err := ev.OpenPlan(r.phys)
	if err != nil {
		r.iter = it // may carry partial stats
		r.fail(err)
		return nil, err
	}
	r.iter = it
	return r, nil
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.p.columns }

// Next advances the cursor to the next row, pulling the next executor batch
// when the current one is exhausted. It returns false at end of stream or on
// error (check Err). A fully drained cursor finalizes itself: its PlanInfo
// becomes available and its resources are released.
func (r *Rows) Next() bool {
	if r.err != nil || r.closed {
		return false
	}
	if r.bi < len(r.batch) {
		r.cur = r.batch[r.bi]
		r.bi++
		return true
	}
	if r.iter != nil {
		batch, err := r.iter.Next()
		if err != nil {
			r.fail(err)
			return false
		}
		if len(batch) == 0 {
			r.finish(nil)
			return false
		}
		r.batch, r.bi = batch, 1
		r.cur = batch[0]
		return true
	}
	r.finish(nil)
	return false
}

// Row returns the current row, valid after a true Next. The row must be
// treated as read-only; it stays valid across further Next calls.
func (r *Rows) Row() datum.Row { return r.cur }

// Scan copies the current row into dest, one target per column. Supported
// targets: *datum.D (any value, NULLs included), *any (NULL scans as nil),
// *int64, *float64 (widens INT), *string (the SQL text rendering), and
// *bool. Scanning SQL NULL into a non-nullable target is an error.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("Scan: %d targets for %d columns", len(dest), len(r.cur))
	}
	for i, d := range r.cur {
		if err := scanDatum(d, dest[i]); err != nil {
			return fmt.Errorf("Scan column %d (%s): %w", i+1, r.p.columns[i], err)
		}
	}
	return nil
}

func scanDatum(d datum.D, dest any) error {
	switch t := dest.(type) {
	case *datum.D:
		*t = d
		return nil
	case *any:
		if d.IsNull() {
			*t = nil
			return nil
		}
		switch d.T {
		case datum.TInt:
			*t = d.I
		case datum.TFloat:
			*t = d.F
		case datum.TString:
			*t = d.S
		case datum.TBool:
			*t = d.B
		default:
			*t = nil
		}
		return nil
	}
	if d.IsNull() {
		return fmt.Errorf("cannot scan NULL into %T", dest)
	}
	switch t := dest.(type) {
	case *int64:
		if d.T != datum.TInt {
			return fmt.Errorf("cannot scan %s into *int64", d.T)
		}
		*t = d.I
	case *float64:
		if d.T != datum.TInt && d.T != datum.TFloat {
			return fmt.Errorf("cannot scan %s into *float64", d.T)
		}
		*t = d.AsFloat()
	case *string:
		*t = d.Format()
	case *bool:
		if d.T != datum.TBool {
			return fmt.Errorf("cannot scan %s into *bool", d.T)
		}
		*t = d.B
	default:
		return fmt.Errorf("unsupported Scan target %T", dest)
	}
	return nil
}

// Err returns the error that terminated iteration, if any. Exhausting the
// result normally is not an error.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor's execution resources: the executor's operator
// tree (hash tables, spill files), the memory budget, the admission slot,
// and the database read lock. It is idempotent and safe mid-stream — closing
// an undrained cursor abandons the remaining rows without computing them.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.finish(nil)
	return nil
}

// Plan returns the execution account — counters, timings, memory footprint,
// per-operator reports — once the cursor has finalized (drained, failed, or
// Closed); before that it returns nil. An early-Closed cursor reports the
// work actually done, which is how streaming early exit shows up in the
// counters.
func (r *Rows) Plan() *PlanInfo {
	if !r.finalized {
		return nil
	}
	return &r.info
}

// fail terminates the cursor with err and finalizes it.
func (r *Rows) fail(err error) {
	r.err = err
	r.finish(err)
}

// finish finalizes the cursor exactly once: it closes the executor iterator,
// snapshots counters and operator reports into PlanInfo, records the
// execution sample, and releases budget, snapshot registration, and
// admission slot — in that order, mirroring ExecuteContext's defer stack.
func (r *Rows) finish(execErr error) {
	if r.finalized {
		return
	}
	r.finalized = true
	r.closed = true
	if r.iter != nil {
		if cerr := r.iter.Close(); cerr != nil && execErr == nil && r.err == nil {
			execErr = cerr
			r.err = cerr
		}
	}
	elapsed := time.Since(r.start)
	r.sp.End()

	if r.iter != nil {
		if opStats := r.iter.Stats(); opStats != nil {
			r.info.phys, r.info.stats = r.phys, opStats
			r.info.MaxQError = r.phys.MaxQError(opStats)
		}
	}
	var ops obs.OpCounters
	if r.info.stats != nil {
		ops = (*opCounters)(&r.info)
	}
	mem := MemInfo{
		LimitBytes:   r.bud.Limit(),
		PeakBytes:    r.bud.Peak(),
		SpilledBytes: r.bud.SpilledBytes(),
		Spills:       r.bud.Spills(),
	}
	ev := r.ev
	r.p.db.metrics.RecordExec(obs.ExecSample{
		Err:       execErr != nil,
		Strategy:  r.p.strategy.String(),
		ExecNanos: int64(elapsed),
		Exec:      execStats(ev.Counters),
		Operators: ops,
		Mem: obs.MemSample{
			LimitBytes:   mem.LimitBytes,
			PeakBytes:    mem.PeakBytes,
			SpilledBytes: mem.SpilledBytes,
			Spills:       mem.Spills,
		},
		AdmissionWaitNanos: r.admissionWait.Nanoseconds(),
	})
	r.info.ExecTime = elapsed
	r.info.Counters = ev.Counters
	r.info.Mem = mem
	r.info.AdmissionWait = r.admissionWait
	if r.bud != nil {
		r.bud.Close()
		r.bud = nil
	}
	if r.releaseSnap != nil {
		r.releaseSnap()
		r.releaseSnap = nil
	}
	if r.release != nil {
		r.release()
		r.release = nil
	}
	r.batch = nil
}

// opCounters hands a finished run's per-operator counters to the metrics
// sink straight from the executed plan's nodes.
type opCounters PlanInfo

func (o *opCounters) Len() int { return len(o.stats) }

func (o *opCounters) Op(i int) (string, int64, int64) {
	return o.phys.Nodes[i].Kind.String(), o.stats[i].Rows, o.stats[i].Nanos
}

// QueryRows optimizes query and returns a streaming cursor over its result;
// it is to QueryContext what ExecuteRows is to ExecuteContext. The cursor
// must be Closed.
func (db *Database) QueryRows(ctx context.Context, query string, opts ...QueryOption) (*Rows, error) {
	p, err := db.PrepareContext(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	return p.ExecuteRows(ctx)
}
