// Streaming (Volcano-style) execution of physical plans: every operator
// implements an open/next/close iterator protocol over small row batches, so
// a consumer that stops pulling (LIMIT, a satisfied EXISTS) stops the whole
// spine, and memory is bounded by pipeline-breaker state (hash tables,
// group-by state, sort buffers, fixpoint deltas) rather than by
// intermediate-result size.
//
// The operators reuse the classic evaluator's machinery — expression
// evaluation, subquery memoization, the join hash build, the shared box
// memo — so a plan mixing streamed
// operators with box-eval bridges (correlated or shared subtrees, extension
// kinds, recursive fixpoints) stays consistent with box-at-a-time results.
package exec

import (
	"fmt"
	"sort"
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
// accounting matches the box-at-a-time evaluator's shape (BoxEvals and
// OutputRows once per box, BaseRows for rows actually read — which streaming
// makes smaller under early exit), and MaxRows/context cancellation are
// enforced at batch granularity.
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
// row budget, mirroring evalBoxNow's accounting.
func (ev *Evaluator) addOutput(n int) error {
	ev.Counters.OutputRows += int64(n)
	if ev.MaxRows > 0 && ev.Counters.OutputRows > ev.MaxRows {
		return errRowBudget(ev.Counters.OutputRows)
	}
	return nil
}

// planRun is one execution of a plan: the operator instances and their
// per-node statistics (plans are shared across concurrent executions; all
// mutable state lives here and in the evaluator).
type planRun struct {
	ev    *Evaluator
	stats []plan.OpStats
}

// spillNote returns the spill-event callback for node n, attributing spill
// counts and bytes to its OpStats (surfaced in EXPLAIN and obs OpSamples).
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
		op = &distinctOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpSort:
		op = &sortOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpLimit:
		op = &limitOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpTrim:
		op = &trimOp{r: r, n: n, child: r.build(n.Children[0])}
	case plan.OpBoxEval, plan.OpFixpoint:
		op = &boxEvalOp{r: r, n: n}
	default:
		op = &boxEvalOp{r: r, n: n}
	}
	return &instrumented{op: op, st: &r.stats[n.ID]}
}

// materialize fully evaluates a subtree (for hash build sides, nested-loop
// inners, and set-operation right inputs). Closed box-rooted subtrees go
// through — and populate — the evaluator's box memo, so shared work between
// streamed and bridged parts of a plan is still done once.
func (r *planRun) materialize(n *plan.Node) ([]datum.Row, error) {
	ev := r.ev
	if n.Kind == plan.OpBoxEval || n.Kind == plan.OpFixpoint {
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
	if n.Box != nil && !ev.NoSubqueryCache {
		if rows, ok := ev.memo[n.Box]; ok {
			return rows, nil
		}
	}
	// A bare scan materializes to the stored rows themselves — callers
	// treat the result as read-only, so skip the batch-append copy and
	// charge the same counters the streamed scan would.
	if n.Kind == plan.OpScan {
		rel, ok := ev.view.Relation(n.Box.Table.Name)
		if !ok {
			return nil, fmt.Errorf("exec: no storage for table %q", n.Box.Table.Name)
		}
		rows := rel.Rows()
		ev.Counters.BoxEvals++
		ev.Counters.BaseRows += int64(len(rows))
		if err := ev.addOutput(len(rows)); err != nil {
			return nil, err
		}
		st := &r.stats[n.ID]
		st.Opens++
		if len(rows) > 0 {
			st.Batches++
			st.Rows += int64(len(rows))
		}
		return rows, nil
	}
	op := r.build(n)
	var rows []datum.Row
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
			rows = append(rows, batch...)
		}
	}()
	if cerr := op.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// Streamed subtrees are closed by construction (lowering bridges
	// correlated boxes), so the result is safe to memoize.
	if n.Box != nil && !ev.NoSubqueryCache {
		ev.memoInsert(n.Box, rows)
	}
	return rows, nil
}

// evalBridge materializes a bridge node's box. A shared box carries its own
// streamed plan below the bridge: that runs (vectorized where it can) and
// lands in the box memo, which serves every later consumer, bridged or
// streamed. Correlated, recursive and extension boxes — and every bridge
// under a memory budget, whose memo the classic evaluator governs — evaluate
// box-at-a-time.
func (r *planRun) evalBridge(n *plan.Node) ([]datum.Row, error) {
	if len(n.Children) == 1 && r.ev.Mem == nil {
		return r.materialize(n.Children[0])
	}
	return r.ev.EvalBox(n.Box, r.ev.rootEnv())
}

// scanBuild snapshots the base table of scan node n columnar, for a flat
// hash-join build: the zero-copy column arrays, the aligned row slice, the
// visibility selection (nil when every version is visible) and the intern
// table. It charges exactly what materialize charges for the same node —
// nothing when a bridged box already scanned (and memoized) the table.
func (r *planRun) scanBuild(n *plan.Node) (vec.Table, []datum.Row, []int32, *vec.Intern, error) {
	ev := r.ev
	rel, ok := ev.view.Relation(n.Box.Table.Name)
	if !ok {
		return vec.Table{}, nil, nil, nil, fmt.Errorf("exec: no storage for table %q", n.Box.Table.Name)
	}
	tbl, rows, vis, tab := rel.Vec()
	if !ev.NoSubqueryCache {
		if _, ok := ev.memo[n.Box]; ok {
			return tbl, rows, vis, tab, nil
		}
	}
	visible := tbl.N
	if vis != nil {
		visible = len(vis)
	}
	ev.Counters.BoxEvals++
	ev.Counters.BaseRows += int64(visible)
	if err := ev.addOutput(visible); err != nil {
		return vec.Table{}, nil, nil, nil, err
	}
	st := &r.stats[n.ID]
	st.Opens++
	if visible > 0 {
		st.Batches++
		st.Rows += int64(visible)
	}
	return tbl, rows, vis, tab, nil
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
	rel, ok := ev.view.Relation(s.n.Box.Table.Name)
	if !ok {
		return fmt.Errorf("exec: no storage for table %q", s.n.Box.Table.Name)
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
// OpBoxEval (correlated, shared, extension) and OpFixpoint (recursive) nodes
// go through evalBridge — the classic evaluator's EvalBox, which handles
// memoization and semi-naive fixpoint iteration, or for a shared box its own
// streamed plan. All Counters accounting happens inside those.
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
	st     *plan.Stage
	access plan.AccessKind // may be downgraded at runtime (missing index)
	// filters are the predicates applied with the stage quantifier bound
	// (residual; plus reconstructed key equalities after an index or
	// nested-loop downgrade).
	filters []qgm.Expr

	child     operator         // AccessStream
	rel       *storage.RelView // AccessIndex: snapshot-filtered probes
	probe     datum.Row        // AccessIndex probe buffer
	lookup    []datum.Row      // AccessIndex: probe-result buffer, reused per binding
	probed    bool             // lookup holds the result of probing with probe
	childRows []datum.Row      // materialized child (hash/scan)
	built     bool
	ht        map[string][]datum.Row

	// Flat hash build (see flatKeys): jt replaces ht for a base-table build
	// side keyed on plain columns — jrows are the rows its ids index, tab the
	// intern table string probes resolve through, chain the next candidate
	// for the current outer binding (-1 none).
	flat  []int // key column ordinals; nil when the stage builds byte-keyed
	jt    *vec.JoinTable
	jrows []datum.Row
	tab   *vec.Intern
	chain int32

	// Budget-mode variants: sht replaces ht (spillable partitioned hash
	// table), buf replaces childRows (spillable nested-loop inner, replayed
	// through cur once per outer binding).
	sht *spillJoin
	buf *rowBuffer
	cur *rowCursor

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
	// per binding. Set by a consumer that keeps no reference to a row past
	// the following next call (the group-by's flat path).
	recycle bool
	slab    []datum.D
	out     []datum.Row
}

func (p *selectPipeOp) open() error {
	ev := p.r.ev
	if p.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	p.env = ev.rootEnv()
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
		ss.access = st.Access
		ss.filters = st.Residual
		switch st.Access {
		case plan.AccessStream:
			ss.child = p.r.build(st.Child)
			if err := ss.child.open(); err != nil {
				return err
			}
		case plan.AccessIndex:
			rel, ok := ev.view.Relation(st.Quant.Ranges.Table.Name)
			if !ok {
				return fmt.Errorf("exec: no storage for table %q", st.Quant.Ranges.Table.Name)
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

// buildSpillStage streams a hash stage's build side into a spillable
// partitioned hash table, charging the stage's rows to the query budget
// instead of materializing them unaccounted. Counter accounting matches the
// materializing build: the child subtree charges its own counters as it
// streams, and the build itself charges one HashBuilds.
func (p *selectPipeOp) buildSpillStage(ss *stageState) error {
	ev := p.r.ev
	ev.Counters.HashBuilds++
	sht := ev.newSpillJoin(p.r.spillNote(p.n))
	child := p.r.build(ss.st.Child)
	if err := child.open(); err != nil {
		child.close()
		sht.close()
		return err
	}
	q := ss.st.Quant
	buf := make([]byte, 0, 64)
	err := func() error {
		for {
			batch, err := child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				p.env[q] = row
				buf = buf[:0]
				null := false
				for _, e := range ss.st.KeyMine {
					v, err := EvalExpr(e, p.env)
					if err != nil {
						return err
					}
					if v.IsNull() {
						null = true
						break
					}
					buf = v.AppendKey(buf)
				}
				if null {
					continue // equality never matches NULL
				}
				if err := sht.add(buf, row); err != nil {
					return err
				}
			}
		}
	}()
	delete(p.env, q)
	if cerr := child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		sht.close()
		return err
	}
	ss.sht = sht
	return nil
}

// buildSpillScan streams a nested-loop inner into a spillable replayable
// row buffer.
func (p *selectPipeOp) buildSpillScan(ss *stageState) error {
	rb := p.r.ev.newRowBuffer("nl-inner", p.r.spillNote(p.n))
	child := p.r.build(ss.st.Child)
	if err := child.open(); err != nil {
		child.close()
		rb.close()
		return err
	}
	err := func() error {
		for {
			batch, err := child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				if err := rb.add(row); err != nil {
					return err
				}
			}
		}
	}()
	if cerr := child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		rb.close()
		return err
	}
	ss.buf = rb
	return nil
}

// downgrade switches a stage whose index probe found no usable index — the
// index was dropped under a cached plan; lowering only plans index access
// where the catalog has one — to a hash join (build side big enough) or a
// nested loop with the key equalities as filters. The choice depends only on
// the store, so plans stay deterministic; the caller's resetStage retry
// builds whichever it picked.
func (p *selectPipeOp) downgrade(ss *stageState) error {
	if p.r.ev.Mem != nil {
		return p.downgradeSpill(ss)
	}
	if ss.rel.Len() > 4 {
		ss.access = plan.AccessHash
		ss.flat = p.flatKeys(ss.st)
		return nil
	}
	ss.access = plan.AccessScan
	ss.filters = p.downgradeFilters(ss)
	return nil
}

// flatKeys returns the key column ordinals of a hash stage that can build a
// flat vec.JoinTable straight from its base table's columnar snapshot, or
// nil when it must build byte-keyed: the same conditions as the vectorized
// select (no memory budget, vectorization on), a base-table scan as the
// build side, and at most vec.MaxKeyCols plain-column keys whose probe
// expressions are of the same comparability class wherever their type is
// known statically (probes of unknown type are classed per row).
func (p *selectPipeOp) flatKeys(st *plan.Stage) []int {
	ev := p.r.ev
	if ev.Mem != nil || ev.NoVec || st.Child.Kind != plan.OpScan || len(st.KeyMine) > vec.MaxKeyCols {
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

// buildHash builds a hash stage's table: flat from the build table's column
// arrays when flatKeys allows, byte-keyed over the materialized child
// otherwise.
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
	rows, err := p.r.materialize(ss.st.Child)
	if err != nil {
		return err
	}
	ss.childRows = rows
	ss.ht, err = ev.buildHashTable(ss.st.Quant, ss.st.KeyMine, rows, p.env)
	return err
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

// downgradeFilters reconstructs the key equalities as residual filters for
// a nested-loop downgrade.
func (p *selectPipeOp) downgradeFilters(ss *stageState) []qgm.Expr {
	filters := make([]qgm.Expr, 0, len(ss.st.Residual)+len(ss.st.KeyMine))
	filters = append(filters, ss.st.Residual...)
	for j := range ss.st.KeyMine {
		filters = append(filters, &qgm.Cmp{Op: datum.EQ, L: ss.st.KeyMine[j], R: ss.st.KeyOther[j]})
	}
	return filters
}

// downgradeSpill is downgrade under a memory budget: the child streams into
// a governed row buffer to learn its cardinality (never into the ungoverned
// memo), then either replays into a spillable hash table or stays a nested
// loop over the buffer.
func (p *selectPipeOp) downgradeSpill(ss *stageState) error {
	ev := p.r.ev
	if err := p.buildSpillScan(ss); err != nil {
		return err
	}
	if ss.buf.count <= 4 {
		ss.access = plan.AccessScan
		cur, err := ss.buf.cursor()
		if err != nil {
			return err
		}
		rows, err := cur.nextBatch(8)
		if err != nil {
			return err
		}
		ss.buf.close()
		ss.buf = nil
		ss.childRows = rows
		ss.built = true
		ss.filters = p.downgradeFilters(ss)
		return nil
	}
	ss.access = plan.AccessHash
	ev.Counters.HashBuilds++
	// Free the buffer's reservation before the build: the replay streams
	// from disk, so the hash table gets the whole remaining budget instead
	// of competing with the buffer's resident suffix.
	if err := ss.buf.freeze(); err != nil {
		return err
	}
	sht := ev.newSpillJoin(p.r.spillNote(p.n))
	cur, err := ss.buf.cursor()
	if err != nil {
		sht.close()
		return err
	}
	q := ss.st.Quant
	buf := make([]byte, 0, 64)
	err = func() error {
		for {
			batch, err := cur.nextBatch(streamBatch)
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			for _, row := range batch {
				p.env[q] = row
				buf = buf[:0]
				null := false
				for _, e := range ss.st.KeyMine {
					v, err := EvalExpr(e, p.env)
					if err != nil {
						return err
					}
					if v.IsNull() {
						null = true
						break
					}
					buf = v.AppendKey(buf)
				}
				if null {
					continue // equality never matches NULL
				}
				if err := sht.add(buf, row); err != nil {
					return err
				}
			}
		}
	}()
	delete(p.env, q)
	ss.buf.close()
	ss.buf = nil
	if err != nil {
		sht.close()
		return err
	}
	ss.sht = sht
	ss.built = true
	return nil
}

// resetStage prepares stage i's candidate rows for the current outer
// binding.
func (p *selectPipeOp) resetStage(i int) error {
	ev := p.r.ev
	ss := &p.stages[i]
	ss.idx = 0
	switch ss.access {
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
		if err := p.downgrade(ss); err != nil {
			return err
		}
		return p.resetStage(i)
	case plan.AccessHash:
		if !ss.built {
			if ev.Mem != nil {
				if err := p.buildSpillStage(ss); err != nil {
					return err
				}
				ss.built = true
				if p.graceShape(i) && ss.sht.spilled() {
					// The build spilled: per-probe lookups would fault
					// partitions in and out once per outer row. Switch to
					// the partition-wise grace join; next() notices p.grace
					// and emits its merge.
					return p.graceRun(ss)
				}
			} else if err := p.buildHash(ss); err != nil {
				return err
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
		if ss.sht != nil {
			rows, err := ss.sht.probe(ev.keyBuf)
			if err != nil {
				return err
			}
			ss.rows = rows
		} else {
			ss.rows = ss.ht[string(ev.keyBuf)]
		}
	case plan.AccessScan:
		if !ss.built {
			if ev.Mem != nil {
				if err := p.buildSpillScan(ss); err != nil {
					return err
				}
			} else {
				rows, err := p.r.materialize(ss.st.Child)
				if err != nil {
					return err
				}
				ss.childRows = rows
			}
			ss.built = true
		}
		if ss.buf != nil {
			cur, err := ss.buf.cursor()
			if err != nil {
				return err
			}
			ss.cur = cur
			ss.rows = nil
		} else {
			ss.rows = ss.childRows
		}
	case plan.AccessCorr:
		rows, err := ev.EvalBox(ss.st.Quant.Ranges, p.env)
		if err != nil {
			return err
		}
		ss.rows = rows
		st := &p.r.stats[ss.st.Child.ID]
		st.Opens++
		st.Rows += int64(len(rows))
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
			if ss.access == plan.AccessStream {
				batch, err := ss.child.next()
				if err != nil {
					return false, err
				}
				if len(batch) > 0 {
					ss.rows = batch
					ss.idx = 0
					continue
				}
			}
			if ss.cur != nil {
				batch, err := ss.cur.nextBatch(streamBatch)
				if err != nil {
					return false, err
				}
				if len(batch) > 0 {
					ss.rows = batch
					ss.idx = 0
					continue
				}
			}
			delete(p.env, q)
			return false, nil
		}
		if err := ev.tick(); err != nil {
			return false, err
		}
		p.env[q] = row
		pass := true
		for _, pred := range ss.filters {
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
	ev := p.r.ev
	for _, q := range p.n.Scalars {
		rows, err := ev.evalSubquery(q, p.env)
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
		rows, err := ev.evalSubquery(sq.Quant, p.env)
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
		for _, q := range p.n.Scalars {
			delete(p.env, q)
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
		for _, q := range p.n.Scalars {
			delete(p.env, q)
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
	ev := g.r.ev
	b := g.n.Box
	if g.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	child := g.r.build(g.n.Children[0])
	if err := child.open(); err != nil {
		child.close()
		return err
	}
	var err error
	if keyOrds, argOrds := groupOrds(b); keyOrds != nil && ev.Mem == nil && !ev.NoVec {
		// Nothing below keeps a reference to an input row, so a select child
		// may recycle its projected rows between batches.
		if sp, ok := child.(*instrumented).op.(*selectPipeOp); ok {
			sp.recycle = true
		}
		err = g.drainFlat(child, keyOrds, argOrds)
	} else {
		err = g.drainKeyed(child)
	}
	if cerr := child.close(); err == nil {
		err = cerr
	}
	return err
}

// groupOrds resolves b's group keys and aggregate arguments to ordinals of
// its input row (-1 for COUNT(*)). It returns nil, nil unless every one is a
// plain column of the input quantifier — what semant emits — and the key
// fits a fixed-width vec.RowKey.
func groupOrds(b *qgm.Box) (keyOrds, argOrds []int) {
	if len(b.GroupBy) > vec.MaxKeyCols {
		return nil, nil
	}
	ord := func(e qgm.Expr) int {
		if cr, ok := e.(*qgm.ColRef); ok && cr.Q == b.Quantifiers[0] {
			return cr.Ord
		}
		return -1
	}
	keyOrds = make([]int, len(b.GroupBy))
	for i, ge := range b.GroupBy {
		if keyOrds[i] = ord(ge); keyOrds[i] < 0 {
			return nil, nil
		}
	}
	argOrds = make([]int, len(b.Aggs))
	for i, a := range b.Aggs {
		argOrds[i] = -1
		if a.Arg != nil {
			if argOrds[i] = ord(a.Arg); argOrds[i] < 0 {
				return nil, nil
			}
		}
	}
	return keyOrds, argOrds
}

// drainFlat groups the child's rows through a flat fixed-width key table:
// keys and arguments are read by ordinal — no Env binding, no expression
// interpreter, no byte-key encoding — and a row that lands in an existing
// group allocates nothing. Group ids are dense in first-seen order, so
// entries is the emission order.
func (g *groupByOp) drainFlat(child operator, keyOrds, argOrds []int) error {
	ev := g.r.ev
	b := g.n.Box
	keyer := vec.NewRowKeyer()
	gt := vec.NewGroupTable()
	var entries []*groupEntry
	key := make(datum.Row, len(keyOrds))
	vals := make([]datum.D, len(argOrds))
	for {
		batch, err := child.next()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return err
			}
			for i, ord := range keyOrds {
				key[i] = row[ord]
			}
			rk, ok := keyer.Key(key)
			if !ok {
				return fmt.Errorf("exec: group key %v has no fixed-width encoding", key)
			}
			gid, fresh := gt.Find(&rk)
			if fresh {
				entries = append(entries, newGroupEntry(append(datum.Row(nil), key...), b.Aggs))
			}
			for i, ord := range argOrds {
				if ord >= 0 {
					vals[i] = row[ord]
				}
			}
			if err := ev.updateGroup(nil, b, entries[gid], nil, vals); err != nil {
				return err
			}
		}
	}
	if len(entries) == 0 && len(b.GroupBy) == 0 {
		g.out = []datum.Row{emptyAggRow(b)}
		return nil
	}
	g.out = make([]datum.Row, len(entries))
	for i, e := range entries {
		g.out[i] = e.row(len(b.Output))
	}
	return nil
}

// drainKeyed groups through the byte-keyed, spill-capable groupTable with
// full expression evaluation: the path for memory-budgeted runs, keys wider
// than vec.MaxKeyCols, computed keys or arguments, and NoVec.
func (g *groupByOp) drainKeyed(child operator) error {
	ev := g.r.ev
	b := g.n.Box
	inQ := b.Quantifiers[0]
	gt := ev.newGroupTable("group-by", g.r.spillNote(g.n))
	defer gt.close()
	env := ev.rootEnv()
	var gkBuf []byte
	for {
		batch, err := child.next()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		for _, row := range batch {
			if err := ev.tick(); err != nil {
				return err
			}
			env[inQ] = row
			if gkBuf, err = ev.accumulateGroup(gt, b, env, gkBuf); err != nil {
				return err
			}
		}
	}
	var err error
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
// is materialized into multiplicity counts, the left input streams through
// the multiset filter.
type setOpOp struct {
	r      *planRun
	n      *plan.Node
	left   operator
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
	if ev.Mem != nil {
		// Budget mode streams the right input straight into the governed
		// count table instead of materializing it into the memo.
		right := s.r.build(s.n.Children[1])
		if err := right.open(); err != nil {
			right.close()
			return err
		}
		err := func() error {
			for {
				batch, err := right.next()
				if err != nil {
					return err
				}
				if len(batch) == 0 {
					return nil
				}
				for _, row := range batch {
					ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
					if err := s.counts.inc(ev.keyBuf); err != nil {
						return err
					}
				}
			}
		}()
		if cerr := right.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	} else {
		right, err := s.r.materialize(s.n.Children[1])
		if err != nil {
			return err
		}
		for _, row := range right {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			if err := s.counts.inc(ev.keyBuf); err != nil {
				return err
			}
		}
	}
	s.seen = ev.newSeenSet("setop-seen", s.r.spillNote(s.n))
	s.left = s.r.build(s.n.Children[0])
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
// first occurrence — matching the materializing evaluator's dedupe order.
type distinctOp struct {
	r     *planRun
	n     *plan.Node
	child operator
	seen  *seenSet
	keyer *vec.RowKeyer
	fast  map[vec.RowKey]struct{}
	out   []datum.Row
}

func (d *distinctOp) open() error {
	ev := d.r.ev
	if d.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	d.seen = ev.newSeenSet("distinct", d.r.spillNote(d.n))
	// Keyable rows dedupe through a fixed-width RowKey set instead of
	// byte-encoded keys; wide or non-encodable rows keep the byte path.
	// Equal rows always classify the same way, so the two sets agree.
	if ev.Mem == nil && !ev.NoVec {
		d.keyer = vec.NewRowKeyer()
		d.fast = map[vec.RowKey]struct{}{}
	}
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
			if d.keyer != nil {
				if rk, ok := d.keyer.Key(row); ok {
					if _, dup := d.fast[rk]; dup {
						continue
					}
					d.fast[rk] = struct{}{}
					d.out = append(d.out, row)
					continue
				}
			}
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

// sortOp is a pipeline breaker implementing top-level ORDER BY with the
// same stable comparator as the materializing evaluator. Under a memory
// budget it runs as an external merge sort (extSorter): when Lower's EstMem
// estimate already exceeds the budget, run flushing is eager (bounded-size
// runs) rather than waiting for the first denial.
type sortOp struct {
	r      *planRun
	n      *plan.Node
	child  operator
	rows   []datum.Row
	pos    int
	sorter *extSorter
}

func (s *sortOp) open() error {
	ev := s.r.ev
	if ev.Mem != nil {
		s.sorter = ev.newExtSorter(s.n.OrderBy, s.r.spillNote(s.n))
		if lim := ev.Mem.Limit(); lim > 0 && s.n.EstMem > float64(lim) {
			eager := lim / 4
			if q := ev.Mem.Quantum(); eager < q {
				eager = q
			}
			s.sorter.eager = eager
		}
	}
	if err := s.child.open(); err != nil {
		s.child.close()
		return err
	}
	err := func() error {
		for {
			batch, err := s.child.next()
			if err != nil {
				return err
			}
			if len(batch) == 0 {
				return nil
			}
			if s.sorter != nil {
				for _, row := range batch {
					if err := s.sorter.add(row); err != nil {
						return err
					}
				}
				continue
			}
			s.rows = append(s.rows, batch...)
		}
	}()
	if cerr := s.child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if s.sorter != nil {
		return s.sorter.finish()
	}
	specs := s.n.OrderBy
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, spec := range specs {
			c := datum.SortCompare(s.rows[i][spec.Ord], s.rows[j][spec.Ord])
			if spec.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

func (s *sortOp) next() ([]datum.Row, error) {
	if s.sorter != nil {
		return s.sorter.next(streamBatch)
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
	return batch, nil
}

func (s *sortOp) close() error {
	if s.sorter != nil {
		s.sorter.close()
		s.sorter = nil
	}
	s.rows = nil
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
