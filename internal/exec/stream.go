// Streaming (Volcano-style) execution of physical plans: every operator
// implements an open/next/close iterator protocol over small row batches, so
// a consumer that stops pulling (LIMIT, a satisfied EXISTS) stops the whole
// spine, and memory is bounded by pipeline-breaker state (hash tables,
// group-by state, sort buffers, fixpoint deltas) rather than by
// intermediate-result size.
//
// A box that is materialized rather than streamed — shared, correlated, a
// subquery input, a recursive fixpoint, an extension kind — is a bridge
// operator whose children are ordinary operator subtrees (see evalBridge):
// a correlated subtree is re-opened for each outer binding, with that
// binding as its operators' outer environment. Each pipeline breaker runs
// one way: its input streams into its container (spill.go), which is plain
// memory without a budget and spills under one.
package exec

import (
	"fmt"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/storage"
	"starmagic/internal/vec"
)

// streamBatch is the row-batch granularity of the iterator protocol: big
// enough to amortize per-batch bookkeeping, small enough that early exit
// wastes little work.
const streamBatch = 64

// operator is the iterator protocol. next returns an empty batch at end of
// stream; returned batches are only valid until the following next call.
type operator interface {
	open() error
	next() ([]datum.Row, error)
	close() error
}

// EvalPlan executes a physical plan and returns the result rows plus
// per-operator statistics indexed by plan node ID. It is the materializing
// form of OpenPlan: the whole result is drained into one slice. Counters
// count BoxEvals and OutputRows once per box evaluation and BaseRows for
// rows actually read (which early exit makes smaller), and MaxRows/context
// cancellation are enforced at batch granularity.
func (ev *Evaluator) EvalPlan(p *plan.Plan) ([]datum.Row, []plan.OpStats, error) {
	it, err := ev.OpenPlan(p)
	if err != nil {
		if it != nil {
			return nil, it.Stats(), err
		}
		return nil, nil, err
	}
	var out []datum.Row
	for {
		batch, err := it.Next()
		if err != nil {
			_ = it.Close()
			return nil, it.Stats(), err
		}
		if len(batch) == 0 {
			break
		}
		out = append(out, batch...)
	}
	if err := it.Close(); err != nil {
		return nil, it.Stats(), err
	}
	return out, it.Stats(), nil
}

// PlanIter is one streaming execution of a physical plan: a pull cursor over
// the root operator's batches. It is the executor's half of the engine's Rows
// API — batches flow from here into result cursors and wire-protocol packets
// without the full result ever materializing.
//
// A PlanIter must be Closed exactly once (Close is idempotent); closing
// before the stream is drained stops the whole operator spine early, which is
// what client-side early exit (a dropped connection, a cursor closed after
// the first page) relies on to not pay for rows never read.
type PlanIter struct {
	run    *planRun
	root   operator
	done   bool
	closed bool
}

// OpenPlan builds the plan's operator tree and opens it. On an open failure
// the partially opened tree is closed and the returned iterator is nil except
// for its statistics, which the caller may still inspect via a non-nil it.
func (ev *Evaluator) OpenPlan(p *plan.Plan) (*PlanIter, error) {
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	run := &planRun{ev: ev, stats: make([]plan.OpStats, len(p.Nodes))}
	it := &PlanIter{run: run, root: run.build(p.Root)}
	if err := it.root.open(); err != nil {
		_ = it.Close()
		return it, err
	}
	return it, nil
}

// Next returns the next batch of result rows, or an empty batch at end of
// stream. The returned slice is only valid until the following Next call; the
// rows it holds are stable. After an error or end of stream every further
// call returns the same terminal state.
func (it *PlanIter) Next() ([]datum.Row, error) {
	if it.done || it.closed {
		return nil, nil
	}
	batch, err := it.root.next()
	if err != nil {
		it.done = true
		return nil, err
	}
	if len(batch) == 0 {
		it.done = true
	}
	return batch, nil
}

// Close releases the operator tree (hash tables, spill files, bridged box
// state). It is idempotent and safe to call mid-stream.
func (it *PlanIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.done = true
	return it.root.close()
}

// Stats returns the per-node operator statistics accumulated so far, indexed
// by plan node ID. The slice is live until Close; callers wanting a final
// snapshot read it after Close.
func (it *PlanIter) Stats() []plan.OpStats { return it.run.stats }

// addOutput accounts rows produced by a box-root operator and enforces the
// row budget.
func (ev *Evaluator) addOutput(n int) error {
	ev.Counters.OutputRows += int64(n)
	if ev.MaxRows > 0 && ev.Counters.OutputRows > ev.MaxRows {
		return errRowBudget(ev.Counters.OutputRows)
	}
	return nil
}

// planRun is one execution of a plan: the operator instances and their
// per-node statistics (plans are shared across concurrent executions; all
// mutable state lives here and in the evaluator). A correlated subtree runs
// in a planRun of its own per outer binding, sharing the statistics.
type planRun struct {
	ev    *Evaluator
	stats []plan.OpStats
	// outer holds the outer bindings (and the parameters) of a correlated
	// subtree's run; nil for the plan's own run.
	outer Env
}

// rootEnv is the environment every operator of the run starts from: the
// run's parameter bindings, plus the outer bindings of a correlated
// subtree's run.
func (r *planRun) rootEnv() Env {
	if r.outer == nil {
		return BindParams(r.ev.Params)
	}
	return r.outer.clone()
}

// spillNote returns the spill-event callback for node n, attributing spill
// counts and bytes to its OpStats (surfaced in EXPLAIN, via
// PlanInfo.Operators() and Physical()).
func (r *planRun) spillNote(n *plan.Node) func(int64) {
	st := &r.stats[n.ID]
	return func(b int64) {
		st.Spills++
		st.SpillBytes += b
	}
}

// build constructs the operator for a node, wrapped with instrumentation.
func (r *planRun) build(n *plan.Node) operator {
	var op operator
	switch n.Kind {
	case plan.OpScan:
		op = &scanOp{r: r, n: n}
	case plan.OpSelect:
		if v := r.tryVecSelect(n); v != nil {
			op = v
		} else {
			op = &selectPipeOp{r: r, n: n}
		}
	case plan.OpGroupBy:
		if v := r.tryVecGroupBy(n); v != nil {
			op = v
		} else {
			op = &groupByOp{groupOut{r: r, n: n}}
		}
	case plan.OpUnion:
		op = &unionOp{r: r, n: n}
	case plan.OpIntersect, plan.OpExcept:
		op = &setOpOp{r: r, n: n}
	case plan.OpDistinct:
		d := &distinctOp{r: r, n: n, child: r.build(n.Children[0])}
		d.clone = recycle(d.child)
		op = d
	case plan.OpSort:
		op = &sortOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpLimit:
		op = &limitOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpTrim:
		op = &trimOp{r: r, n: n, child: r.build(n.Children[0])}
	default: // plan.OpBoxEval, plan.OpFixpoint
		op = &boxEvalOp{r: r, n: n}
	}
	return &instrumented{op: op, st: &r.stats[n.ID]}
}

// materialize fully evaluates a subtree for the columnar select's hash
// stages over a non-scan build side, and for bridges: a bridge node runs
// through evalBridge and is charged here, since no operator instruments it;
// any other subtree drains through its streamed operator.
func (r *planRun) materialize(n *plan.Node) ([]datum.Row, error) {
	if n.Kind != plan.OpBoxEval && n.Kind != plan.OpFixpoint {
		return r.drain(n)
	}
	rows, err := r.evalBridge(n)
	if err != nil {
		return nil, err
	}
	st := &r.stats[n.ID]
	st.Opens++
	st.Batches++
	st.Rows += int64(len(rows))
	return rows, nil
}

// scanBuild snapshots the base table of scan node n columnar, for a flat
// hash-join build: the zero-copy column arrays, the aligned row slice, the
// visibility selection (nil when every version is visible) and the intern
// table. It charges exactly what a streamed scan of the same node charges.
func (r *planRun) scanBuild(n *plan.Node) (vec.Table, []datum.Row, []int32, *vec.Intern, error) {
	rel, err := r.ev.relation(n.Box.Table)
	if err != nil {
		return vec.Table{}, nil, nil, nil, err
	}
	tbl, rows, vis, tab := rel.Vec()
	visible := tbl.N
	if vis != nil {
		visible = len(vis)
	}
	if err := r.chargeScan(n, visible); err != nil {
		return vec.Table{}, nil, nil, nil, err
	}
	return tbl, rows, vis, tab, nil
}

// chargeScan charges what a streamed scan of node n charges for reading
// visible rows in one go.
func (r *planRun) chargeScan(n *plan.Node, visible int) error {
	ev := r.ev
	ev.Counters.BoxEvals++
	ev.Counters.BaseRows += int64(visible)
	st := &r.stats[n.ID]
	st.Opens++
	if visible > 0 {
		st.Batches++
		st.Rows += int64(visible)
	}
	return ev.addOutput(visible)
}

// instrumented wraps an operator with per-node counters: opens, batches,
// rows, and inclusive wall-clock time. It also makes close idempotent, so
// early closes (LIMIT) compose with the final tree close.
type instrumented struct {
	op     operator
	st     *plan.OpStats
	closed bool
}

func (w *instrumented) open() error {
	t := time.Now()
	err := w.op.open()
	w.st.Opens++
	w.st.Nanos += time.Since(t).Nanoseconds()
	return err
}

func (w *instrumented) next() ([]datum.Row, error) {
	t := time.Now()
	batch, err := w.op.next()
	w.st.Nanos += time.Since(t).Nanoseconds()
	if len(batch) > 0 {
		w.st.Batches++
		w.st.Rows += int64(len(batch))
	}
	return batch, err
}

func (w *instrumented) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	t := time.Now()
	err := w.op.close()
	w.st.Nanos += time.Since(t).Nanoseconds()
	return err
}

// scanOp streams a base table in batches. BaseRows counts rows actually
// pulled, so early exit is visible in the counters.
type scanOp struct {
	r    *planRun
	n    *plan.Node
	rows []datum.Row
	pos  int
}

func (s *scanOp) open() error {
	ev := s.r.ev
	rel, err := ev.relation(s.n.Box.Table)
	if err != nil {
		return err
	}
	s.rows = rel.Rows()
	s.pos = 0
	ev.Counters.BoxEvals++
	return nil
}

func (s *scanOp) next() ([]datum.Row, error) {
	ev := s.r.ev
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + streamBatch
	if end > len(s.rows) {
		end = len(s.rows)
	}
	batch := s.rows[s.pos:end]
	s.pos = end
	ev.Counters.BaseRows += int64(len(batch))
	if err := ev.addOutput(len(batch)); err != nil {
		return nil, err
	}
	return batch, nil
}

func (s *scanOp) close() error {
	s.rows = nil
	return nil
}

// boxEvalOp materializes a box and streams the result out in batches:
// OpBoxEval (shared, fixpoint input, extension kind) and OpFixpoint
// (recursive) nodes go through evalBridge, which handles memoization and
// naive fixpoint iteration. All Counters accounting happens inside it.
type boxEvalOp struct {
	r    *planRun
	n    *plan.Node
	rows []datum.Row
	pos  int
}

func (o *boxEvalOp) open() error {
	rows, err := o.r.evalBridge(o.n)
	if err != nil {
		return err
	}
	o.rows = rows
	o.pos = 0
	return nil
}

func (o *boxEvalOp) next() ([]datum.Row, error) {
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	end := o.pos + streamBatch
	if end > len(o.rows) {
		end = len(o.rows)
	}
	batch := o.rows[o.pos:end]
	o.pos = end
	return batch, nil
}

func (o *boxEvalOp) close() error {
	o.rows = nil
	return nil
}

// stageState is the runtime state of one join-pipeline stage.
type stageState struct {
	st *plan.Stage

	child  operator         // AccessStream
	rel    *storage.RelView // AccessIndex: snapshot-filtered probes
	probe  datum.Row        // AccessIndex probe buffer
	lookup []datum.Row      // AccessIndex: probe-result buffer, reused per binding
	probed bool             // lookup holds the result of probing with probe
	built  bool             // AccessHash, AccessScan: the build side is in

	// Flat hash build (see flatKeys): jt keys a base-table build side on
	// plain columns — jrows are the rows its ids index, tab the intern table
	// string probes resolve through, chain the next candidate for the
	// current outer binding (-1 none).
	flat  []int // key column ordinals; nil when the stage builds byte-keyed
	jt    *vec.JoinTable
	jrows []datum.Row
	tab   *vec.Intern
	chain int32

	// The build containers of spill.go, plain memory without a budget: sht
	// is a byte-keyed hash build, buf a nested-loop inner, replayed through
	// cur, which is rewound once per outer binding.
	sht *spillJoin
	buf *rowBuffer
	cur rowCursor

	rows []datum.Row // current candidate rows for the outer binding
	idx  int
}

// subqState caches a first-match subquery verdict for the pipe's lifetime
// (the check is provably constant across outer bindings).
type subqState struct {
	valid bool
	val   bool
}

// selectPipeOp executes a select box's join pipeline: an odometer over the
// stages, binding each stage's quantifier to qualifying rows, then scalar
// subqueries, post-predicates, semi/anti-join checks, and projection.
type selectPipeOp struct {
	r *planRun
	n *plan.Node

	env    Env
	stages []stageState
	subqs  []subqState
	depth  int
	done   bool
	// oneShot handles a stage-less box (no ForEach quantifiers): exactly one
	// candidate binding is finished.
	oneShot bool
	// grace, when set, replaces the odometer: the pipeline switched to a
	// partition-wise grace join (see grace.go) and next() emits its merge.
	grace *graceJoin

	// recycle lets next project into one reused slab instead of a fresh row
	// per binding. Set through recycle by a consumer that keeps no reference
	// to a row past the following next call, or copies the rows it keeps.
	recycle bool
	slab    []datum.D
	out     []datum.Row
}

func (p *selectPipeOp) open() error {
	ev := p.r.ev
	if p.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	p.env = p.r.rootEnv()
	p.done = false
	p.grace = nil
	p.oneShot = len(p.n.Stages) == 0

	// Constant predicates: any non-TRUE empties the box.
	for _, pred := range p.n.ConstPreds {
		tv, err := EvalPred(pred, p.env)
		if err != nil {
			return err
		}
		if tv != datum.True {
			p.done = true
			return nil
		}
	}

	p.stages = make([]stageState, len(p.n.Stages))
	for i := range p.n.Stages {
		st := &p.n.Stages[i]
		ss := &p.stages[i]
		ss.st = st
		switch st.Access {
		case plan.AccessStream:
			ss.child = p.r.build(st.Child)
			if err := ss.child.open(); err != nil {
				return err
			}
		case plan.AccessIndex:
			rel, err := ev.relation(st.Quant.Ranges.Table)
			if err != nil {
				return err
			}
			ss.rel = rel
			ss.probe = make(datum.Row, len(st.KeyOther))
		case plan.AccessHash:
			ss.flat = p.flatKeys(st)
		}
	}
	p.subqs = make([]subqState, len(p.n.Subqs))
	p.depth = 0
	if len(p.stages) > 0 {
		return p.resetStage(0)
	}
	return nil
}

// pull runs subtree n to completion through its streamed operator, handing
// each batch to f.
func (r *planRun) pull(n *plan.Node, f func([]datum.Row) error) error {
	return pullOp(r.build(n), f)
}

// pullOp opens op, hands each of its batches to f, and closes it.
func pullOp(op operator, f func([]datum.Row) error) error {
	err := func() error {
		if err := op.open(); err != nil {
			return err
		}
		for {
			batch, err := op.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			if err := f(batch); err != nil {
				return err
			}
		}
	}()
	if cerr := op.close(); err == nil {
		err = cerr
	}
	return err
}

// drain runs subtree n to completion through its streamed operator and
// returns its rows.
func (r *planRun) drain(n *plan.Node) ([]datum.Row, error) {
	var rows []datum.Row
	err := r.pull(n, func(batch []datum.Row) error {
		rows = append(rows, batch...)
		return nil
	})
	return rows, err
}

// buildHash builds a hash stage's table: flat from the build table's column
// arrays when flatKeys allows, otherwise by streaming the build side into a
// byte-keyed spillJoin. The build charges one HashBuilds; a streamed child
// charges its own counters.
func (p *selectPipeOp) buildHash(ss *stageState) error {
	ev := p.r.ev
	ev.Counters.HashBuilds++
	ss.built = true
	if ss.flat != nil {
		tbl, rows, vis, tab, err := p.r.scanBuild(ss.st.Child)
		if err != nil {
			return err
		}
		cols := make([]*vec.Col, len(ss.flat))
		for j, ord := range ss.flat {
			cols[j] = &tbl.Cols[ord]
		}
		ss.jt, ss.jrows, ss.tab = vec.BuildJoinTable(cols, tbl.N, vis), rows, tab
		return nil
	}
	// Installed before the build, so close releases it on an error too.
	ss.sht = ev.newSpillJoin(p.r.spillNote(p.n))
	q := ss.st.Quant
	key := make([]byte, 0, 64)
	err := p.r.pull(ss.st.Child, func(batch []datum.Row) error {
	rows:
		for _, row := range batch {
			p.env[q] = row
			key = key[:0]
			for _, e := range ss.st.KeyMine {
				v, err := EvalExpr(e, p.env)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue rows // equality never matches NULL
				}
				key = v.AppendKey(key)
			}
			if err := ss.sht.add(key, row); err != nil {
				return err
			}
		}
		return nil
	})
	delete(p.env, q)
	return err
}

// buildScan streams a nested-loop inner into its replayable row buffer.
// Without a budget, a base-table inner adopts the scan's visible rows in
// place, charged as a streamed scan of them is.
func (p *selectPipeOp) buildScan(ss *stageState) error {
	ss.built = true
	ss.buf = p.r.ev.newRowBuffer("nl-inner", p.r.spillNote(p.n))
	if child := ss.st.Child; child.Kind == plan.OpScan && p.r.ev.Mem == nil {
		rel, err := p.r.ev.relation(child.Box.Table)
		if err != nil {
			return err
		}
		ss.buf.rows = rel.Rows()
		return p.r.chargeScan(child, len(ss.buf.rows))
	}
	return p.r.pull(ss.st.Child, func(batch []datum.Row) error {
		for _, row := range batch {
			if err := ss.buf.add(row); err != nil {
				return err
			}
		}
		return nil
	})
}

// flatKeys returns the key column ordinals of a hash stage that can build a
// flat vec.JoinTable straight from its base table's columnar snapshot, or
// nil when it must build byte-keyed: no memory budget (the flat table does
// not spill), a base-table scan as the build side, and at most
// vec.MaxKeyCols plain-column keys whose probe expressions are of the same
// comparability class wherever their type is known statically (probes of
// unknown type are classed per row).
func (p *selectPipeOp) flatKeys(st *plan.Stage) []int {
	if p.r.ev.Mem != nil || st.Child.Kind != plan.OpScan || len(st.KeyMine) > vec.MaxKeyCols {
		return nil
	}
	cols := st.Child.Box.Table.Columns
	ords := make([]int, len(st.KeyMine))
	for j, m := range st.KeyMine {
		cr, ok := m.(*qgm.ColRef)
		if !ok || cr.Q != st.Quant || cr.Ord >= len(cols) {
			return nil
		}
		mine := vecClass(cols[cr.Ord].Type)
		if other := vecClass(qgm.TypeOf(st.KeyOther[j])); mine == 0 || other != 0 && other != mine {
			return nil
		}
		ords[j] = cr.Ord
	}
	return ords
}

// probeFlat positions a flat hash stage on the chain matching the current
// outer binding, with the byte-keyed probe's accounting: a NULL key component
// skips the probe, and a value that cannot equal any build key (a string
// that was never interned, a value of another class) probes and misses.
func (p *selectPipeOp) probeFlat(ss *stageState) error {
	ss.chain = -1
	var key vec.Key
	miss := false
	cols := ss.st.Child.Box.Table.Columns
	for j, e := range ss.st.KeyOther {
		v, err := EvalExpr(e, p.env)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil // equality never matches NULL
		}
		w, ok := vec.NormDatum(v, ss.tab)
		if !ok || vecClass(v.T) != vecClass(cols[ss.flat[j]].Type) {
			miss = true
		}
		key.V[j] = w
	}
	p.r.ev.Counters.HashProbes++
	if !miss {
		ss.chain = ss.jt.Head(&key)
	}
	return nil
}

// resetStage prepares stage i's candidate rows for the current outer
// binding.
func (p *selectPipeOp) resetStage(i int) error {
	ev := p.r.ev
	ss := &p.stages[i]
	ss.idx = 0
	switch ss.st.Access {
	case plan.AccessStream:
		// advanceStage pulls batches from the child.
		ss.rows = nil
	case plan.AccessIndex:
		same := ss.probed
		for j, e := range ss.st.KeyOther {
			v, err := EvalExpr(e, p.env)
			if err != nil {
				return err
			}
			same = same && v == ss.probe[j]
			ss.probe[j] = v
		}
		if same {
			// The previous binding's key again (a clustered outer side
			// repeats keys in runs): same snapshot, same rows.
			ev.Counters.IndexLookups++
			ss.rows = ss.lookup
			return nil
		}
		if rows, used := ss.rel.LookupInto(ss.st.IndexCols, ss.probe, ss.lookup[:0]); used {
			ev.Counters.IndexLookups++
			ss.rows, ss.lookup, ss.probed = rows, rows, true
			return nil
		}
		// The plan's table carries the index (see Evaluator.relation), and
		// the probe reads the live index generation.
		return fmt.Errorf("exec: internal error: no index on %s%v", ss.st.Quant.Ranges.Table.Name, ss.st.IndexCols)
	case plan.AccessHash:
		if !ss.built {
			if err := p.buildHash(ss); err != nil {
				return err
			}
			if ss.sht != nil && ss.sht.spilled() && p.graceShape(i) {
				// The build spilled: per-probe lookups would fault
				// partitions in and out once per outer row. Switch to the
				// partition-wise grace join; next() notices p.grace and
				// emits its merge.
				return p.graceRun(ss)
			}
		}
		if ss.jt != nil {
			return p.probeFlat(ss)
		}
		ev.keyBuf = ev.keyBuf[:0]
		for _, e := range ss.st.KeyOther {
			v, err := EvalExpr(e, p.env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				ss.rows = nil // equality never matches NULL
				return nil
			}
			ev.keyBuf = v.AppendKey(ev.keyBuf)
		}
		ev.Counters.HashProbes++
		rows, err := ss.sht.probe(ev.keyBuf)
		if err != nil {
			return err
		}
		ss.rows = rows
	case plan.AccessScan:
		if !ss.built {
			if err := p.buildScan(ss); err != nil {
				return err
			}
		}
		// advanceStage pulls the replay's batches.
		ss.rows = nil
		return ss.cur.rewind(ss.buf)
	case plan.AccessCorr:
		rows, err := p.r.bridgeUnder(ss.st.Child, p.env)
		if err != nil {
			return err
		}
		ss.rows = rows
	}
	return nil
}

// advanceStage moves stage i to its next qualifying row, binding the stage
// quantifier. Returns false when the stage is exhausted for the current
// outer binding.
func (p *selectPipeOp) advanceStage(i int) (bool, error) {
	ev := p.r.ev
	ss := &p.stages[i]
	q := ss.st.Quant
	for {
		var row datum.Row
		if ss.jt != nil {
			if ss.chain < 0 {
				delete(p.env, q)
				return false, nil
			}
			row = ss.jrows[ss.chain]
			ss.chain = ss.jt.Next(ss.chain)
		} else if ss.idx < len(ss.rows) {
			row = ss.rows[ss.idx]
			ss.idx++
		} else {
			var batch []datum.Row
			var err error
			switch {
			case ss.child != nil:
				batch, err = ss.child.next()
			case ss.buf != nil:
				batch, err = ss.cur.nextBatch(streamBatch)
			}
			if err != nil {
				return false, err
			}
			if len(batch) > 0 {
				ss.rows = batch
				ss.idx = 0
				continue
			}
			delete(p.env, q)
			return false, nil
		}
		if err := ev.tick(); err != nil {
			return false, err
		}
		p.env[q] = row
		pass := true
		for _, pred := range ss.st.Residual {
			tv, err := EvalPred(pred, p.env)
			if err != nil {
				return false, err
			}
			if tv != datum.True {
				pass = false
				break
			}
		}
		if pass {
			return true, nil
		}
	}
}

// finishRow completes the current full binding: scalar subqueries,
// post-predicates, and semi/anti-join checks. Scalar bindings stay live for
// the projection; the caller clears them.
func (p *selectPipeOp) finishRow() (bool, error) {
	for i := range p.n.Scalars {
		sq := &p.n.Scalars[i]
		q := sq.Quant
		rows, err := p.r.evalSubquery(sq.Child, q, p.env)
		if err != nil {
			return false, err
		}
		switch {
		case len(rows) == 0:
			null := make(datum.Row, len(q.Ranges.Output))
			for i := range null {
				null[i] = datum.NullOf(q.Ranges.Output[i].Type)
			}
			p.env[q] = null
		case len(rows) == 1:
			p.env[q] = rows[0]
		default:
			return false, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
		}
	}
	for _, pred := range p.n.PostPreds {
		tv, err := EvalPred(pred, p.env)
		if err != nil {
			return false, err
		}
		if tv != datum.True {
			return false, nil
		}
	}
	for i := range p.n.Subqs {
		pass, err := p.checkSubq(i)
		if err != nil {
			return false, err
		}
		if !pass {
			return false, nil
		}
	}
	return true, nil
}

func (p *selectPipeOp) checkSubq(i int) (bool, error) {
	ev := p.r.ev
	sq := &p.n.Subqs[i]
	if sq.Mode == plan.SubqBridge {
		rows, err := p.r.evalSubquery(sq.Child, sq.Quant, p.env)
		if err != nil {
			return false, err
		}
		return ev.checkQuantifier(sq.Quant, sq.Match, rows, p.env)
	}
	// First-match: the verdict is independent of the outer bindings, so it
	// is computed once per open — except in tuple-at-a-time mode, which
	// re-streams per outer row (still early-exiting).
	c := &p.subqs[i]
	if c.valid && !ev.NoSubqueryCache {
		return c.val, nil
	}
	ev.Counters.SubqueryEvals++
	val, err := p.firstMatch(sq)
	if err != nil {
		return false, err
	}
	c.valid, c.val = true, val
	return val, nil
}

// firstMatch streams the subquery tree and stops pulling at the first
// decisive row: a witness for Exists (semi-join), a violation for ForAll
// (anti-join). This is the true early exit the materializing evaluator
// cannot do — the build side stops producing as soon as the verdict is
// known.
func (p *selectPipeOp) firstMatch(sq *plan.Subquery) (bool, error) {
	ev := p.r.ev
	q := sq.Quant
	child := p.r.build(sq.Child)
	if err := child.open(); err != nil {
		child.close()
		return false, err
	}
	defer child.close()
	for {
		batch, err := child.next()
		if err != nil {
			return false, err
		}
		if len(batch) == 0 {
			// Exhausted without a decisive row: no witness / no violation.
			return q.Type == qgm.ForAll, nil
		}
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return false, err
			}
			p.env[q] = row
			all := true
			for _, m := range sq.Match {
				tv, err := EvalPred(m, p.env)
				if err != nil {
					delete(p.env, q)
					return false, err
				}
				if tv != datum.True {
					all = false
					break
				}
			}
			delete(p.env, q)
			if q.Type == qgm.Exists && all {
				return true, nil
			}
			if q.Type == qgm.ForAll && !all {
				return false, nil
			}
		}
	}
}

func (p *selectPipeOp) next() ([]datum.Row, error) {
	ev := p.r.ev
	if p.done {
		return nil, nil
	}
	if p.grace != nil {
		return p.graceNext()
	}
	if p.oneShot {
		p.done = true
		pass, err := p.finishRow()
		if err != nil {
			return nil, err
		}
		var out []datum.Row
		if pass {
			row, err := ev.projectRow(p.n.Box, p.env)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
		for _, sq := range p.n.Scalars {
			delete(p.env, sq.Quant)
		}
		if p.n.BoxRoot && len(out) > 0 {
			if err := ev.addOutput(len(out)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	out := p.out[:0]
	i := p.depth
	last := len(p.stages) - 1
	for {
		if i < 0 {
			p.done = true
			break
		}
		ok, err := p.advanceStage(i)
		if err != nil {
			return nil, err
		}
		if !ok {
			i--
			continue
		}
		if i < last {
			i++
			if err := p.resetStage(i); err != nil {
				return nil, err
			}
			if p.grace != nil {
				// The stage's spilled build switched the pipeline to grace
				// mode; no binding has completed yet, so nothing is lost.
				return p.graceNext()
			}
			continue
		}
		pass, err := p.finishRow()
		if err != nil {
			return nil, err
		}
		var row datum.Row
		if pass {
			row, err = p.project(len(out))
		}
		for _, sq := range p.n.Scalars {
			delete(p.env, sq.Quant)
		}
		if err != nil {
			return nil, err
		}
		if pass {
			out = append(out, row)
			if len(out) >= streamBatch {
				break
			}
		}
	}
	p.out = out
	p.depth = i
	if p.n.BoxRoot && len(out) > 0 {
		if err := ev.addOutput(len(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// project renders the current binding as the k-th row of the batch being
// assembled: a fresh row, or under recycle a window of the reused slab.
func (p *selectPipeOp) project(k int) (datum.Row, error) {
	if !p.recycle {
		return p.r.ev.projectRow(p.n.Box, p.env)
	}
	out := p.n.Box.Output
	if p.slab == nil {
		p.slab = make([]datum.D, streamBatch*len(out))
	}
	row := datum.Row(p.slab[k*len(out) : (k+1)*len(out) : (k+1)*len(out)])
	for i, oc := range out {
		v, err := EvalExpr(oc.Expr, p.env)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func (p *selectPipeOp) close() error {
	var err error
	for i := range p.stages {
		ss := &p.stages[i]
		if ss.child != nil {
			if e := ss.child.close(); e != nil && err == nil {
				err = e
			}
		}
		if ss.sht != nil {
			ss.sht.close()
		}
		if ss.buf != nil {
			ss.buf.close()
		}
	}
	if p.grace != nil {
		p.grace.close()
		p.grace = nil
	}
	p.stages = nil
	p.env = nil
	p.out, p.slab = nil, nil
	return err
}

// recycle lets child, when it is a row-path select, project into its reused
// slab (see selectPipeOp.recycle), and reports whether it does: the
// consumer must then copy every row it keeps past the following next call.
func recycle(child operator) bool {
	sp, ok := child.(*instrumented).op.(*selectPipeOp)
	if ok {
		sp.recycle = true
	}
	return ok
}

// cloneRows copies rows kept from a recycled batch into one fresh backing
// array, so they outlive the batch at one allocation per batch.
func cloneRows(rows []datum.Row) {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	slab := make([]datum.D, 0, n)
	for i, r := range rows {
		start := len(slab)
		slab = append(slab, r...)
		rows[i] = slab[start:len(slab):len(slab)]
	}
}

// groupOut streams a finished group-by's result rows; both group-by
// operators fill out at open.
type groupOut struct {
	r   *planRun
	n   *plan.Node
	out []datum.Row
	pos int
}

func (g *groupOut) next() ([]datum.Row, error) {
	if g.pos >= len(g.out) {
		return nil, nil
	}
	end := g.pos + streamBatch
	if end > len(g.out) {
		end = len(g.out)
	}
	batch := g.out[g.pos:end]
	g.pos = end
	if g.n.BoxRoot {
		if err := g.r.ev.addOutput(len(batch)); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// groupByOp is a pipeline breaker: open drains the input into grouped
// aggregate state (insertion order preserved), next streams the groups.
type groupByOp struct {
	groupOut
}

func (g *groupByOp) open() error {
	if g.n.BoxRoot {
		g.r.ev.Counters.BoxEvals++
	}
	child := g.r.build(g.n.Children[0])
	// Grouping keeps no reference to an input row — a new group copies its
	// key, aggregate states hold values.
	recycle(child)
	return g.drainKeyed(child)
}

// drainKeyed groups the child's rows through the byte-keyed groupTable (plain
// memory without a budget, spillable under one), evaluating keys and
// arguments with the expression interpreter.
func (g *groupByOp) drainKeyed(child operator) error {
	ev := g.r.ev
	b := g.n.Box
	inQ := b.Quantifiers[0]
	gt := ev.newGroupTable("group-by", g.r.spillNote(g.n))
	defer gt.close()
	env := g.r.rootEnv()
	var gkBuf []byte
	err := pullOp(child, func(batch []datum.Row) error {
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return err
			}
			env[inQ] = row
			var err error
			if gkBuf, err = ev.accumulateGroup(gt, b, env, gkBuf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.out, err = emitGroups(gt, b)
	return err
}

func (g *groupByOp) close() error {
	g.out = nil
	return nil
}

// unionOp streams its inputs in order, opening each child only when
// reached and closing it as soon as it is exhausted.
type unionOp struct {
	r        *planRun
	n        *plan.Node
	children []operator
	cur      int
}

func (u *unionOp) open() error {
	if u.n.BoxRoot {
		u.r.ev.Counters.BoxEvals++
	}
	u.children = make([]operator, len(u.n.Children))
	for i, c := range u.n.Children {
		u.children[i] = u.r.build(c)
	}
	u.cur = 0
	if len(u.children) > 0 {
		return u.children[0].open()
	}
	return nil
}

func (u *unionOp) next() ([]datum.Row, error) {
	for u.cur < len(u.children) {
		batch, err := u.children[u.cur].next()
		if err != nil {
			return nil, err
		}
		if len(batch) > 0 {
			if u.n.BoxRoot {
				if err := u.r.ev.addOutput(len(batch)); err != nil {
					return nil, err
				}
			}
			return batch, nil
		}
		if err := u.children[u.cur].close(); err != nil {
			return nil, err
		}
		u.cur++
		if u.cur < len(u.children) {
			if err := u.children[u.cur].open(); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

func (u *unionOp) close() error {
	var err error
	for _, c := range u.children {
		if c == nil {
			continue
		}
		if e := c.close(); e != nil && err == nil {
			err = e
		}
	}
	u.children = nil
	return err
}

// setOpOp implements INTERSECT/EXCEPT (ALL and DISTINCT): the right input
// streams into multiplicity counts, the left input streams through the
// multiset filter.
type setOpOp struct {
	r      *planRun
	n      *plan.Node
	left   operator
	clone  bool // left recycles its rows: copy the kept ones
	counts *countTable
	seen   *seenSet
	out    []datum.Row
}

func (s *setOpOp) open() error {
	ev := s.r.ev
	if s.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	s.counts = ev.newCountTable("setop", s.r.spillNote(s.n))
	// The right input is only counted: its rows may be recycled.
	right := s.r.build(s.n.Children[1])
	recycle(right)
	err := pullOp(right, func(batch []datum.Row) error {
		for _, row := range batch {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			if err := s.counts.inc(ev.keyBuf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.seen = ev.newSeenSet("setop-seen", s.r.spillNote(s.n))
	s.left = s.r.build(s.n.Children[0])
	s.clone = recycle(s.left)
	return s.left.open()
}

func (s *setOpOp) next() ([]datum.Row, error) {
	ev := s.r.ev
	distinct := s.n.Box.Distinct != qgm.DistinctPreserve
	for {
		batch, err := s.left.next()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, nil
		}
		s.out = s.out[:0]
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return nil, err
			}
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			c, err := s.counts.count(ev.keyBuf)
			if err != nil {
				return nil, err
			}
			inRight := c > 0
			switch s.n.Box.Kind {
			case qgm.KindIntersect:
				if !inRight {
					continue
				}
				if distinct {
					dup, err := s.seen.checkAndAdd(ev.keyBuf)
					if err != nil {
						return nil, err
					}
					if dup {
						continue
					}
				} else {
					// INTERSECT ALL: min of multiplicities.
					if err := s.counts.dec(ev.keyBuf); err != nil {
						return nil, err
					}
				}
				s.out = append(s.out, row)
			case qgm.KindExcept:
				if distinct {
					if inRight {
						continue
					}
					dup, err := s.seen.checkAndAdd(ev.keyBuf)
					if err != nil {
						return nil, err
					}
					if dup {
						continue
					}
					s.out = append(s.out, row)
				} else {
					if inRight {
						// EXCEPT ALL: subtract multiplicities.
						if err := s.counts.dec(ev.keyBuf); err != nil {
							return nil, err
						}
						continue
					}
					s.out = append(s.out, row)
				}
			}
		}
		if len(s.out) == 0 {
			continue
		}
		if s.clone {
			cloneRows(s.out)
		}
		if s.n.BoxRoot {
			if err := ev.addOutput(len(s.out)); err != nil {
				return nil, err
			}
		}
		return s.out, nil
	}
}

func (s *setOpOp) close() error {
	var err error
	if s.left != nil {
		err = s.left.close()
	}
	if s.counts != nil {
		s.counts.close()
	}
	if s.seen != nil {
		s.seen.close()
	}
	s.counts, s.seen, s.out = nil, nil, nil
	return err
}

// distinctOp filters duplicates with a streaming seen-set, keeping the
// first occurrence.
type distinctOp struct {
	r     *planRun
	n     *plan.Node
	child operator
	clone bool // child recycles its rows: copy the kept ones
	seen  *seenSet
	out   []datum.Row
}

func (d *distinctOp) open() error {
	ev := d.r.ev
	if d.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	d.seen = ev.newSeenSet("distinct", d.r.spillNote(d.n))
	return d.child.open()
}

func (d *distinctOp) next() ([]datum.Row, error) {
	ev := d.r.ev
	for {
		batch, err := d.child.next()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, nil
		}
		d.out = d.out[:0]
		for _, row := range batch {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			dup, err := d.seen.checkAndAdd(ev.keyBuf)
			if err != nil {
				return nil, err
			}
			if dup {
				continue
			}
			d.out = append(d.out, row)
		}
		if len(d.out) == 0 {
			continue
		}
		if d.clone {
			cloneRows(d.out)
		}
		if d.n.BoxRoot {
			if err := ev.addOutput(len(d.out)); err != nil {
				return nil, err
			}
		}
		return d.out, nil
	}
}

func (d *distinctOp) close() error {
	err := d.child.close()
	if d.seen != nil {
		d.seen.close()
	}
	d.seen, d.out = nil, nil
	return err
}

// sortOp is a pipeline breaker implementing top-level ORDER BY with a
// stable comparator: open streams the input into an extSorter, an
// in-memory stable sort without a budget and an external merge sort under
// one. When Lower's EstMem estimate already
// exceeds the budget, run flushing is eager (bounded-size runs) rather than
// waiting for the first denial.
type sortOp struct {
	r      *planRun
	n      *plan.Node
	child  operator
	sorter *extSorter
}

func (s *sortOp) open() error {
	ev := s.r.ev
	s.sorter = ev.newExtSorter(s.n.OrderBy, s.r.spillNote(s.n))
	if lim := ev.Mem.Limit(); lim > 0 && s.n.EstMem > float64(lim) {
		s.sorter.eager = max(lim/4, ev.Mem.Quantum())
	}
	err := pullOp(s.child, func(batch []datum.Row) error {
		for _, row := range batch {
			if err := s.sorter.add(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return s.sorter.finish()
}

func (s *sortOp) next() ([]datum.Row, error) {
	return s.sorter.next(streamBatch)
}

func (s *sortOp) close() error {
	if s.sorter != nil {
		s.sorter.close()
		s.sorter = nil
	}
	return nil
}

// limitOp delivers at most N rows, then stops pulling and eagerly closes
// its child — the stop signal that makes LIMIT a true early exit.
type limitOp struct {
	r         *planRun
	n         *plan.Node
	child     operator
	remaining int64
	done      bool
}

func (l *limitOp) open() error {
	l.remaining = l.n.N
	l.done = l.remaining <= 0
	if l.done {
		return nil
	}
	return l.child.open()
}

func (l *limitOp) next() ([]datum.Row, error) {
	if l.done {
		return nil, nil
	}
	batch, err := l.child.next()
	if err != nil {
		return nil, err
	}
	if len(batch) == 0 {
		l.done = true
		return nil, nil
	}
	if int64(len(batch)) > l.remaining {
		batch = batch[:l.remaining]
	}
	l.remaining -= int64(len(batch))
	if l.remaining <= 0 {
		l.done = true
		if err := l.child.close(); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

func (l *limitOp) close() error {
	return l.child.close()
}

// trimOp drops trailing hidden ORDER BY support columns.
type trimOp struct {
	r     *planRun
	n     *plan.Node
	child operator
	out   []datum.Row
}

func (t *trimOp) open() error { return t.child.open() }

func (t *trimOp) next() ([]datum.Row, error) {
	batch, err := t.child.next()
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	t.out = t.out[:0]
	for _, r := range batch {
		t.out = append(t.out, r[:len(r)-t.n.Hidden])
	}
	return t.out, nil
}

func (t *trimOp) close() error {
	err := t.child.close()
	t.out = nil
	return err
}
