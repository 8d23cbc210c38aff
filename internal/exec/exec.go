// Package exec executes lowered physical plans (internal/plan): streamed
// operators over row batches (stream.go), their columnar forms (vec.go,
// vecagg.go), and the bridges that materialize a box from its own lowered
// subtree — memoized shared boxes, correlated subtrees re-opened per outer
// binding, subquery inputs, recursive fixpoints and extension kinds (this
// file).
//
// The executor is deliberately strategy-agnostic: the three execution
// strategies compared in the paper's Table 1 (Original, Correlated, EMST)
// are different QGM graphs produced by the rewrite layers, lowered and run
// by this same engine. The only strategy knob here is NoSubqueryCache, which
// models tuple-at-a-time correlated re-execution (the "Correlated" column).
package exec

import (
	"context"
	"fmt"
	"sort"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/resource"
	"starmagic/internal/storage"
)

// Counters records work done during evaluation; benchmarks and tests use
// them to validate cost shapes deterministically.
type Counters struct {
	BaseRows      int64 // rows read from base relations
	BoxEvals      int64 // box evaluations: box-root operator opens, extension-kind runs (memo hits excluded)
	SubqueryEvals int64 // subquery evaluations for E/A/S quantifiers
	HashBuilds    int64 // transient join hash tables built
	HashProbes    int64 // probes into transient join hash tables
	IndexLookups  int64 // base-table index probes
	GraceJoins    int64 // hash stages that switched to partition-wise grace probing
	OutputRows    int64 // rows produced by box evaluations
}

// Evaluator executes QGM graphs against a store.
type Evaluator struct {
	store *storage.Store
	// view is the snapshot the evaluation reads: every base-table access
	// (scan, columnar capture, index probe) resolves through it. New
	// installs a lazy ReadAll live view (every committed row); the engine
	// overrides it per execution with the query's or transaction's MVCC
	// snapshot via SetView.
	view *storage.View

	// NoSubqueryCache disables memoization of correlated evaluations,
	// modeling tuple-at-a-time correlated execution (Table 1's "Correlated"
	// strategy). The box memo of closed bridges is also disabled so every
	// use re-evaluates.
	NoSubqueryCache bool

	// MaxRows aborts runaway evaluations (0 = unlimited).
	MaxRows int64

	// NoVec disables the columnar operators (the vectorized select and
	// group-by), forcing every plan onto the row-at-a-time pipeline. The
	// engine sets it from Database.SetVectorized; the vectorized-vs-row
	// oracle tests rely on it.
	NoVec bool

	// Params binds the query's positional `?` placeholders for this run,
	// slot i holding the value of parameter ordinal i. Bindings are constant
	// for the whole evaluation, so box memoization and subquery caches stay
	// valid; they enter expression evaluation through the paramsQ sentinel
	// binding every root environment carries (see planRun.rootEnv).
	Params datum.Row

	// Mem, when non-nil, is the query's memory budget. Pipeline-breaker
	// state — join hash tables, sort buffers, DISTINCT/GROUP-BY tables,
	// set-operation counts, fixpoint seen-sets, nested-loop inners — is
	// charged against it through per-operator accounts and spills to disk
	// when a reservation is denied (see spill.go); the streaming executor
	// feeds those containers the same way with or without a budget. A
	// budget keeps plans off the columnar operators and the flat hash-join
	// build, which do not spill. Memoization caches (box memo, subquery
	// caches, fixpoint sets) are governed too: see
	// cachegov.go — denied inserts skip caching and recompute, cached
	// entries are evicted under pressure, and only resident fixpoint sets
	// can fail the query. Final result rows remain exempt. Set by the
	// engine; nil means unbounded in-memory execution.
	Mem *resource.Budget

	// cgov charges memoization state to Mem; nil until the first governed
	// cache insert (see cg).
	cgov *cacheGov

	// spillables are the live paged containers of this evaluator, in
	// creation order. When one container's own evictions cannot satisfy a
	// reservation, Evaluator.reclaimSpace pages out resident state of the
	// others (e.g. a finished hash build yields to the operator currently
	// growing). Maintained by newPagedTable/pagedTable.close.
	spillables []spillable

	Counters Counters

	// ctx/ctxDone arm cooperative cancellation (see SetContext). ctxDone is
	// cached so the amortized poll sites pay one nil check when no
	// cancellable context is installed.
	ctx     context.Context
	ctxDone <-chan struct{}
	// ticks amortizes the cancellation poll: only every ctxPollInterval-th
	// per-row checkpoint actually reads the done channel, keeping the
	// scan/join hot loops within benchmark noise.
	ticks int

	memo      map[*qgm.Box][]datum.Row
	subCache  map[*qgm.Quantifier]map[string][]datum.Row
	free      map[*qgm.Box][]corrRef
	recActive map[*qgm.Box]bool

	// keyBuf is the evaluator's reusable row-key buffer. Every hash-keyed
	// path (joins, grouping, distinct, set ops, memo keys, recursion deltas)
	// encodes into it with datum.AppendKey and indexes maps with
	// string(keyBuf), which Go compiles to an allocation-free lookup; a key
	// string is materialized only when it must be stored.
	keyBuf []byte
}

// corrRef is a free (outer) column reference of a box subtree.
type corrRef struct {
	q   *qgm.Quantifier
	ord int
}

// New returns an evaluator over the store, reading every committed row
// (a lazy ReadAll view). The engine swaps in a snapshot view with SetView.
func New(store *storage.Store) *Evaluator {
	return &Evaluator{
		store:     store,
		view:      store.LiveView(),
		memo:      map[*qgm.Box][]datum.Row{},
		subCache:  map[*qgm.Quantifier]map[string][]datum.Row{},
		free:      map[*qgm.Box][]corrRef{},
		recActive: map[*qgm.Box]bool{},
	}
}

// SetView installs the storage view (MVCC snapshot) the evaluation reads.
func (ev *Evaluator) SetView(v *storage.View) { ev.view = v }

// ctxPollInterval is the amortization window for cancellation checks: one
// done-channel read per this many per-row checkpoints.
const ctxPollInterval = 1024

// SetContext arms cooperative cancellation: the evaluator polls ctx in its
// per-row hot loops (amortized, every ctxPollInterval rows) and once per
// recursive fixpoint round, so a cancelled or expired context aborts the
// evaluation promptly with ctx.Err(). Contexts that can never be cancelled
// (nil, context.Background()) disable polling entirely.
func (ev *Evaluator) SetContext(ctx context.Context) {
	if ctx == nil {
		ev.ctx, ev.ctxDone = nil, nil
		return
	}
	ev.ctx = ctx
	ev.ctxDone = ctx.Done()
}

// tick is the amortized per-row cancellation checkpoint.
func (ev *Evaluator) tick() error {
	if ev.ctxDone == nil {
		return nil
	}
	ev.ticks++
	if ev.ticks%ctxPollInterval != 0 {
		return nil
	}
	return ev.ctxErr()
}

// ctxErr is the unamortized cancellation check (stage boundaries, fixpoint
// rounds).
func (ev *Evaluator) ctxErr() error {
	if ev.ctxDone == nil {
		return nil
	}
	select {
	case <-ev.ctxDone:
		return ev.ctx.Err()
	default:
		return nil
	}
}

// KindHandler evaluates an extension box kind: inputs[i] holds the rows of
// b.Quantifiers[i]'s box, and env the outer bindings (and `?` parameters)
// its expressions may reference. The handler must not modify env.
type KindHandler func(b *qgm.Box, inputs [][]datum.Row, env Env) ([]datum.Row, error)

var kindHandlers = map[qgm.BoxKind]KindHandler{}

// RegisterKind installs an executor for an extension box kind. It mirrors
// the paper's extensibility story (§5): a database customizer adding a new
// operation supplies its evaluation alongside its AMQ/NMQ declaration.
func RegisterKind(k qgm.BoxKind, h KindHandler) { kindHandlers[k] = h }

func errRowBudget(n int64) error {
	return fmt.Errorf("exec: row budget exceeded (%d rows)", n)
}

// relation resolves base table t through the evaluation's view. A plan runs
// only against the tables it was made for: the view's relation must carry t
// itself as its metadata. A table dropped and re-created after the plan was
// made, or after a transaction's snapshot was taken, fails the query rather
// than feeding rows of another shape (or without the plan's indexes) to it.
func (ev *Evaluator) relation(t *catalog.Table) (*storage.RelView, error) {
	rel, ok := ev.view.Relation(t.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %q", t.Name)
	}
	if rel.Meta != t {
		return nil, fmt.Errorf("exec: table %q was replaced after the plan or the snapshot was made", t.Name)
	}
	return rel, nil
}

// evalBridge materializes bridge node n's box. A fixpoint iterates its body,
// and an extension kind, whose children are its quantifiers' subtrees, runs
// its handler over their rows. Any other bridge the plan streams through (a
// shared box, a closed input of a fixpoint body, a closed subquery) is
// closed: it drains its own subtree into the box memo, which serves every
// later consumer and every later round, unless NoSubqueryCache re-evaluates
// each use.
func (r *planRun) evalBridge(n *plan.Node) ([]datum.Row, error) {
	ev := r.ev
	switch {
	case n.Kind == plan.OpFixpoint:
		return r.fixpoint(n)
	case len(n.Children) == 0 || n.Children[0].Box != n.Box:
		return r.extension(n)
	}
	if !ev.NoSubqueryCache {
		if rows, ok := ev.memo[n.Box]; ok {
			return rows, nil
		}
	}
	rows, err := r.drain(n.Children[0])
	if err != nil {
		return nil, err
	}
	if !ev.NoSubqueryCache {
		ev.memoInsert(n.Box, rows)
	}
	return rows, nil
}

// bridgeUnder evaluates bridge n's box for one outer binding: its subtree
// is drained with env's bindings as the outer bindings of every operator in
// it. Correlated stages and subquery inputs evaluate this way.
func (r *planRun) bridgeUnder(n *plan.Node, env Env) ([]datum.Row, error) {
	sub := &planRun{ev: r.ev, stats: r.stats, outer: env}
	rows, err := sub.drain(n.Children[0])
	if err != nil {
		return nil, err
	}
	st := &r.stats[n.ID]
	st.Opens++
	st.Rows += int64(len(rows))
	return rows, nil
}

// evalSubquery evaluates the subquery of quantifier q through its bridge n
// under the current bindings, memoizing per distinct correlation values
// unless disabled; a closed subquery is memoized per box.
func (r *planRun) evalSubquery(n *plan.Node, q *qgm.Quantifier, cur Env) ([]datum.Row, error) {
	ev := r.ev
	if ev.NoSubqueryCache {
		ev.Counters.SubqueryEvals++
		return r.bridgeUnder(n, cur)
	}
	refs := ev.freeRefs(q.Ranges)
	if len(refs) == 0 {
		return r.materialize(n)
	}
	if err := ev.corrKeyBuf(refs, cur); err != nil {
		return nil, err
	}
	cache := ev.subCache[q]
	if cache == nil {
		cache = map[string][]datum.Row{}
		ev.subCache[q] = cache
	}
	// Memo hit: string(keyBuf) indexes without allocating.
	if rows, ok := cache[string(ev.keyBuf)]; ok {
		return rows, nil
	}
	// Miss: materialize the key string before the drain, which reuses
	// keyBuf.
	key := string(ev.keyBuf)
	ev.Counters.SubqueryEvals++
	rows, err := r.bridgeUnder(n, cur)
	if err != nil {
		return nil, err
	}
	ev.subInsert(q, cache, key, rows)
	return rows, nil
}

// extension runs an extension kind's registered handler over the rows of
// its quantifiers' subtrees, the bridge's children.
func (r *planRun) extension(n *plan.Node) ([]datum.Row, error) {
	ev := r.ev
	h, ok := kindHandlers[n.Box.Kind]
	if !ok {
		return nil, fmt.Errorf("exec: no handler for box kind %s", n.Box.Kind)
	}
	ev.Counters.BoxEvals++
	inputs := make([][]datum.Row, len(n.Children))
	for i, c := range n.Children {
		rows, err := r.materialize(c)
		if err != nil {
			return nil, err
		}
		inputs[i] = rows
	}
	rows, err := h(n.Box, inputs, r.rootEnv())
	if err != nil {
		return nil, err
	}
	return rows, ev.addOutput(len(rows))
}

// maxRecursion bounds the rounds of a recursive view's fixpoint iteration.
const maxRecursion = 1000

// fixpoint iterates a recursive view's fixpoint root n to a fixpoint: each
// round re-opens the body (n's child) with the previous round's accumulated
// set visible through the root's memo entry, which the body's childless
// fixpoint leaves read, accumulating new rows under set semantics until no
// round adds one.
func (r *planRun) fixpoint(n *plan.Node) ([]datum.Row, error) {
	ev := r.ev
	b := n.Box
	if ev.recActive[b] || len(n.Children) == 0 {
		// A leaf of the body: the previous round's set.
		return ev.memo[b], nil
	}
	if rows, ok := ev.memo[b]; ok {
		return rows, nil
	}
	ev.recActive[b] = true
	defer delete(ev.recActive, b)

	scc := ev.sccMembers(b)
	var cur []datum.Row
	// The delta-membership keyset is spillable under a memory budget; the
	// accumulated set itself must stay resident because the body re-enters
	// it through the memo every round.
	seen := ev.newSeenSet("fixpoint", nil)
	defer seen.close()
	for iter := 0; ; iter++ {
		if iter >= maxRecursion {
			return nil, fmt.Errorf("exec: recursive view %q did not reach a fixpoint in %d iterations", b.Name, maxRecursion)
		}
		// A cancelled query must not keep iterating toward a distant (or
		// unreachable) fixpoint; check every round, unamortized.
		if err := ev.ctxErr(); err != nil {
			return nil, err
		}
		if err := ev.memoResident(b, cur); err != nil {
			return nil, err
		}
		ev.invalidateSCC(b, scc)
		rows, err := r.drain(n.Children[0])
		if err != nil {
			return nil, err
		}
		// Only rows not yet in the accumulated set join it; the next round
		// still re-evaluates the whole body (naive iteration). The
		// membership test is allocation-free; a key string materializes
		// only for genuinely new rows.
		grew := false
		for _, row := range rows {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
			dup, serr := seen.checkAndAdd(ev.keyBuf)
			if serr != nil {
				return nil, serr
			}
			if !dup {
				cur = append(cur, row)
				grew = true
			}
		}
		if !grew {
			break
		}
		// The row budget bounds the accumulated fixpoint itself, aborting
		// between rounds — a runaway recursion must not iterate on just
		// because each individual round stayed under budget.
		if ev.MaxRows > 0 && int64(len(cur)) > ev.MaxRows {
			return nil, errRowBudget(int64(len(cur)))
		}
	}
	if err := ev.memoResident(b, cur); err != nil {
		return nil, err
	}
	return cur, nil
}

// sccMembers returns the boxes of b's recursive component: reachable from b
// and able to reach b.
func (ev *Evaluator) sccMembers(b *qgm.Box) []*qgm.Box {
	var reach func(from, to *qgm.Box, seen map[*qgm.Box]bool) bool
	reach = func(from, to *qgm.Box, seen map[*qgm.Box]bool) bool {
		if from == to {
			return true
		}
		if from == nil || seen[from] {
			return false
		}
		seen[from] = true
		for _, q := range from.Quantifiers {
			if reach(q.Ranges, to, seen) {
				return true
			}
		}
		return reach(from.MagicBox, to, seen)
	}
	var members []*qgm.Box
	visited := map[*qgm.Box]bool{}
	var collect func(x *qgm.Box)
	collect = func(x *qgm.Box) {
		if x == nil || visited[x] {
			return
		}
		visited[x] = true
		if x != b {
			back := false
			for _, q := range x.Quantifiers {
				if q.Ranges == b || reach(q.Ranges, b, map[*qgm.Box]bool{}) {
					back = true
					break
				}
			}
			if back {
				members = append(members, x)
			}
		}
		for _, q := range x.Quantifiers {
			collect(q.Ranges)
		}
		collect(x.MagicBox)
	}
	collect(b)
	return members
}

// invalidateSCC clears the memo entries and subquery caches of b's
// recursive component so each fixpoint round re-evaluates against the
// updated set.
func (ev *Evaluator) invalidateSCC(b *qgm.Box, scc []*qgm.Box) {
	inSCC := map[*qgm.Box]bool{b: true}
	for _, x := range scc {
		inSCC[x] = true
	}
	for _, x := range scc {
		ev.memoDelete(x)
	}
	clearQuants := func(box *qgm.Box) {
		for _, q := range box.Quantifiers {
			if inSCC[q.Ranges] {
				ev.cacheDeleteQuant(q)
			}
		}
	}
	clearQuants(b)
	for _, x := range scc {
		clearQuants(x)
	}
}

// checkQuantifier applies E/A semantics: Exists passes iff some subquery row
// satisfies every match predicate; ForAll passes iff every subquery row does
// (vacuously true on empty input). UNKNOWN does not satisfy.
func (ev *Evaluator) checkQuantifier(q *qgm.Quantifier, match []qgm.Expr, rows []datum.Row, cur Env) (bool, error) {
	rowOK := func(row datum.Row) (bool, error) {
		cur[q] = row
		defer delete(cur, q)
		for _, pred := range match {
			tv, err := EvalPred(pred, cur)
			if err != nil {
				return false, err
			}
			if tv != datum.True {
				return false, nil
			}
		}
		return true, nil
	}
	if q.Type == qgm.Exists {
		for _, row := range rows {
			ok, err := rowOK(row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	// ForAll.
	for _, row := range rows {
		ok, err := rowOK(row)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// corrKeyBuf encodes the correlation values of refs into ev.keyBuf.
func (ev *Evaluator) corrKeyBuf(refs []corrRef, env Env) error {
	ev.keyBuf = ev.keyBuf[:0]
	for _, r := range refs {
		row, ok := env[r.q]
		if !ok {
			return fmt.Errorf("exec: unbound correlation quantifier %q", r.q.Name)
		}
		ev.keyBuf = row[r.ord].AppendKey(ev.keyBuf)
	}
	return nil
}

func (ev *Evaluator) projectRow(b *qgm.Box, cur Env) (datum.Row, error) {
	row := make(datum.Row, len(b.Output))
	for i, oc := range b.Output {
		v, err := EvalExpr(oc.Expr, cur)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// accumulateGroup folds one input row (already bound in env) into gt: group
// key, entry lookup/insert, aggregate update, DISTINCT-argument filtering.
// The key is evaluated into gt's scratch row
// and copied only when it starts a new group. gkBuf is the reusable byte
// encoding of the group key (ev.keyBuf is left to the distinct-argument
// keys); the returned slice is passed back in.
func (ev *Evaluator) accumulateGroup(gt *groupTable, b *qgm.Box, env Env, gkBuf []byte) ([]byte, error) {
	if gt.vals == nil {
		gt.key = make(datum.Row, len(b.GroupBy))
		gt.vals = make([]datum.D, len(b.Aggs))
	}
	for i, ge := range b.GroupBy {
		v, err := EvalExpr(ge, env)
		if err != nil {
			return gkBuf, err
		}
		gt.key[i] = v
	}
	gkBuf = datum.AppendKey(gkBuf[:0], gt.key)
	grp, ok, err := gt.lookup(gkBuf)
	if err != nil {
		return gkBuf, err
	}
	if !ok {
		grp = newGroupEntry(append(datum.Row(nil), gt.key...), b.Aggs)
		if err := gt.insert(gkBuf, grp); err != nil {
			return gkBuf, err
		}
	}
	for i, a := range b.Aggs {
		if a.Arg == nil {
			continue
		}
		if gt.vals[i], err = EvalExpr(a.Arg, env); err != nil {
			return gkBuf, err
		}
	}
	return gkBuf, ev.updateGroup(gt, b, grp, gkBuf, gt.vals)
}

// updateGroup folds one row's aggregate arguments (vals[i] for b.Aggs[i];
// ignored for COUNT(*)) into grp: DISTINCT-argument filtering, state
// updates, and distinct-set growth accounting against the spill table (gkBuf
// is the entry's byte key for recharging).
func (ev *Evaluator) updateGroup(gt *groupTable, b *qgm.Box, grp *groupEntry, gkBuf []byte, vals []datum.D) error {
	var delta int64
	for i, a := range b.Aggs {
		v := vals[i]
		if a.Distinct {
			if v.IsNull() {
				continue
			}
			ev.keyBuf = v.AppendKey(ev.keyBuf[:0])
			if grp.distinct[i][string(ev.keyBuf)] {
				continue
			}
			grp.distinct[i][string(ev.keyBuf)] = true
			delta += 24 + int64(len(ev.keyBuf))
		}
		if err := grp.states[i].Add(v); err != nil {
			return err
		}
	}
	if delta > 0 {
		grp.memSize += delta
		if err := gt.recharge(gkBuf, delta); err != nil {
			return err
		}
	}
	return nil
}

// emptyAggRow is the one row a scalar aggregation (no GROUP BY) yields over
// empty input.
func emptyAggRow(b *qgm.Box) datum.Row {
	row := make(datum.Row, len(b.Output))
	for i, a := range b.Aggs {
		row[i] = datum.NewAggState(a.Kind).Result()
	}
	return row
}

// row renders the group's output row: key values, then aggregate results.
func (e *groupEntry) row(width int) datum.Row {
	row := make(datum.Row, 0, width)
	row = append(row, e.key...)
	for _, st := range e.states {
		row = append(row, st.Result())
	}
	return row
}

// emitGroups renders gt's groups in first-seen order (insertion sequence),
// matching the in-memory map+order emission even after partitions spilled
// and paged back in hash order.
func emitGroups(gt *groupTable, b *qgm.Box) ([]datum.Row, error) {
	if gt.len() == 0 && len(b.GroupBy) == 0 {
		return []datum.Row{emptyAggRow(b)}, nil
	}
	type seqRow struct {
		seq uint64
		row datum.Row
	}
	srows := make([]seqRow, 0, gt.len())
	err := gt.each(func(e *groupEntry) error {
		srows = append(srows, seqRow{seq: e.seq, row: e.row(len(b.Output))})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(srows, func(i, j int) bool { return srows[i].seq < srows[j].seq })
	out := make([]datum.Row, len(srows))
	for i, sr := range srows {
		out[i] = sr.row
	}
	return out, nil
}

// freeRefs computes (and caches) the free column references of a box
// subtree: references to quantifiers declared outside it. A box with no
// free references is closed and can be materialized once.
func (ev *Evaluator) freeRefs(b *qgm.Box) []corrRef {
	if refs, ok := ev.free[b]; ok {
		return refs
	}
	owned := map[*qgm.Quantifier]bool{}
	var collect func(box *qgm.Box)
	seen := map[*qgm.Box]bool{}
	collect = func(box *qgm.Box) {
		if seen[box] {
			return
		}
		seen[box] = true
		for _, q := range box.Quantifiers {
			owned[q] = true
			collect(q.Ranges)
		}
		if box.MagicBox != nil {
			collect(box.MagicBox)
		}
	}
	collect(b)

	dedup := map[corrRef]bool{}
	var refs []corrRef
	addFrom := func(e qgm.Expr) {
		if e == nil {
			return
		}
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			if !owned[c.Q] {
				r := corrRef{q: c.Q, ord: c.Ord}
				if !dedup[r] {
					dedup[r] = true
					refs = append(refs, r)
				}
			}
		})
	}
	for box := range seen {
		for _, e := range box.Preds {
			addFrom(e)
		}
		for _, oc := range box.Output {
			addFrom(oc.Expr)
		}
		for _, e := range box.GroupBy {
			addFrom(e)
		}
		for _, a := range box.Aggs {
			addFrom(a.Arg)
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].q.ID != refs[j].q.ID {
			return refs[i].q.ID < refs[j].q.ID
		}
		return refs[i].ord < refs[j].ord
	})
	ev.free[b] = refs
	return refs
}
