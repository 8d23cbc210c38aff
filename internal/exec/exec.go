// Package exec evaluates QGM graphs: a box-at-a-time interpreter with
// pipelined nested-loop/hash joins inside select boxes, memoized
// materialization of shared (common-subexpression) boxes, index lookups on
// base tables, and the E/A/S quantifier semantics of subqueries.
//
// The executor is deliberately strategy-agnostic: the three execution
// strategies compared in the paper's Table 1 (Original, Correlated, EMST)
// are different QGM graphs produced by the rewrite layers, evaluated by this
// same engine. The only strategy knob here is NoSubqueryCache, which models
// tuple-at-a-time correlated re-execution (the "Correlated" column).
package exec

import (
	"context"
	"fmt"
	"sort"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
	"starmagic/internal/resource"
	"starmagic/internal/storage"
)

// Counters records work done during evaluation; benchmarks and tests use
// them to validate cost shapes deterministically.
type Counters struct {
	BaseRows      int64 // rows read from base relations
	BoxEvals      int64 // box materializations (excluding memo hits)
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
	// strategy). Box-level materialization of closed boxes is also
	// disabled so every use re-evaluates.
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
	// binding every root environment carries (see rootEnv).
	Params datum.Row

	// Mem, when non-nil, is the query's memory budget. Pipeline-breaker
	// state — join hash tables, sort buffers, DISTINCT/GROUP-BY tables,
	// set-operation counts, fixpoint seen-sets, nested-loop inners — is
	// charged against it through per-operator accounts and spills to disk
	// when a reservation is denied (see spill.go); the streaming executor
	// feeds those containers the same way with or without a budget. A
	// budget keeps plans off the columnar operators and the flat hash-join
	// build, which do not spill. Memoization caches (box memo,
	// subquery/hash caches, fixpoint sets) are governed too: see
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

	memo       map[*qgm.Box][]datum.Row
	subCache   map[*qgm.Quantifier]map[string][]datum.Row
	free       map[*qgm.Box][]corrRef
	hashCache  map[*qgm.Quantifier]map[string]map[string][]datum.Row
	inProgress map[*qgm.Box]bool
	recActive  map[*qgm.Box]bool

	// keyBuf is the evaluator's reusable row-key buffer. Every hash-keyed
	// path (joins, grouping, dedupe, set ops, memo keys, recursion deltas)
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
		hashCache: map[*qgm.Quantifier]map[string]map[string][]datum.Row{},
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

// KindHandler evaluates an extension box kind.
type KindHandler func(ev *Evaluator, b *qgm.Box, env Env) ([]datum.Row, error)

var kindHandlers = map[qgm.BoxKind]KindHandler{}

// RegisterKind installs an executor for an extension box kind. It mirrors
// the paper's extensibility story (§5): a database customizer adding a new
// operation supplies its evaluation alongside its AMQ/NMQ declaration.
func RegisterKind(k qgm.BoxKind, h KindHandler) { kindHandlers[k] = h }

// EvalGraph evaluates the whole query: the top box plus top-level ORDER BY
// and LIMIT.
func (ev *Evaluator) EvalGraph(g *qgm.Graph) ([]datum.Row, error) {
	if err := ev.ctxErr(); err != nil {
		return nil, err
	}
	rows, err := ev.EvalBox(g.Top, ev.rootEnv())
	if err != nil {
		return nil, err
	}
	if len(g.OrderBy) > 0 {
		sorted := make([]datum.Row, len(rows))
		copy(sorted, rows)
		sort.SliceStable(sorted, func(i, j int) bool {
			for _, spec := range g.OrderBy {
				c := datum.SortCompare(sorted[i][spec.Ord], sorted[j][spec.Ord])
				if spec.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		rows = sorted
	}
	if g.Limit >= 0 && int64(len(rows)) > g.Limit {
		rows = rows[:g.Limit]
	}
	if g.HiddenCols > 0 {
		trimmed := make([]datum.Row, len(rows))
		for i, r := range rows {
			trimmed[i] = r[:len(r)-g.HiddenCols]
		}
		rows = trimmed
	}
	return rows, nil
}

// EvalBox evaluates one box under the environment. Closed boxes (no free
// references) are materialized once and memoized, implementing QGM common
// subexpressions; correlated boxes evaluate per call.
func (ev *Evaluator) EvalBox(b *qgm.Box, env Env) ([]datum.Row, error) {
	if b.Recursive {
		return ev.evalRecursive(b, env)
	}
	closed := len(ev.freeRefs(b)) == 0
	if closed && !ev.NoSubqueryCache {
		if rows, ok := ev.memo[b]; ok {
			return rows, nil
		}
	}
	// A closed box re-entered during its own evaluation is a cycle that was
	// not marked Recursive (those take the fixpoint path above): a malformed
	// graph, reported rather than looped on.
	if closed {
		if ev.inProgress == nil {
			ev.inProgress = map[*qgm.Box]bool{}
		}
		if ev.inProgress[b] {
			return nil, fmt.Errorf("exec: cyclic (recursive) query graph at box %q", b.Name)
		}
		ev.inProgress[b] = true
		defer delete(ev.inProgress, b)
	}
	rows, err := ev.evalBoxNow(b, env)
	if err != nil {
		return nil, err
	}
	if closed && !ev.NoSubqueryCache {
		ev.memoInsert(b, rows)
	}
	return rows, nil
}

// maxRecursion bounds the rounds of a recursive view's fixpoint iteration.
const maxRecursion = 1000

// evalRecursive iterates a recursive view's fixpoint root to a fixpoint:
// each round re-evaluates the body with the previous round's accumulated
// set visible through the root's memo entry, accumulating new rows under
// set semantics until no round adds one.
func (ev *Evaluator) evalRecursive(b *qgm.Box, env Env) ([]datum.Row, error) {
	if ev.recActive == nil {
		ev.recActive = map[*qgm.Box]bool{}
	}
	if ev.recActive[b] {
		// Re-entry from within the body: the previous round's set.
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
		rows, err := ev.evalBoxNow(b, env)
		if err != nil {
			return nil, err
		}
		// Only rows not yet in the accumulated set join it; the next round
		// still re-evaluates the whole body (naive iteration). The
		// membership test is allocation-free; a key string materializes
		// only for genuinely new rows.
		grew := false
		for _, r := range rows {
			ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], r)
			dup, serr := seen.checkAndAdd(ev.keyBuf)
			if serr != nil {
				return nil, serr
			}
			if !dup {
				cur = append(cur, r)
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

// invalidateSCC clears per-round caches of the recursive component so each
// fixpoint round re-evaluates against the updated set.
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

func (ev *Evaluator) evalBoxNow(b *qgm.Box, env Env) ([]datum.Row, error) {
	// Correlated (tuple-at-a-time) plans re-enter here once per outer row,
	// so this checkpoint also bounds cancellation latency for plans whose
	// inner loops are many small box evaluations.
	if err := ev.tick(); err != nil {
		return nil, err
	}
	ev.Counters.BoxEvals++
	var rows []datum.Row
	var err error
	switch b.Kind {
	case qgm.KindBaseTable:
		rows, err = ev.evalBase(b)
	case qgm.KindSelect:
		rows, err = ev.evalSelect(b, env)
	case qgm.KindGroupBy:
		rows, err = ev.evalGroupBy(b, env)
	case qgm.KindUnion:
		rows, err = ev.evalUnion(b, env)
	case qgm.KindIntersect, qgm.KindExcept:
		rows, err = ev.evalIntersectExcept(b, env)
	default:
		h, ok := kindHandlers[b.Kind]
		if !ok {
			return nil, fmt.Errorf("exec: no handler for box kind %s", b.Kind)
		}
		rows, err = h(ev, b, env)
	}
	if err != nil {
		return nil, err
	}
	ev.Counters.OutputRows += int64(len(rows))
	if ev.MaxRows > 0 && ev.Counters.OutputRows > ev.MaxRows {
		return nil, errRowBudget(ev.Counters.OutputRows)
	}
	return rows, nil
}

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

func (ev *Evaluator) evalBase(b *qgm.Box) ([]datum.Row, error) {
	rel, err := ev.relation(b.Table)
	if err != nil {
		return nil, err
	}
	rows := rel.Rows()
	ev.Counters.BaseRows += int64(len(rows))
	return rows, nil
}

// selectPlan is the per-box execution plan computed once per evaluation:
// which predicates run at which join stage, and which subquery quantifiers
// are checked at the end.
type selectPlan struct {
	fQuants []*qgm.Quantifier
	sQuants []*qgm.Quantifier // Scalar
	qQuants []*qgm.Quantifier // Exists / ForAll
	// stagePreds[i] holds predicates evaluable once fQuants[:i] are bound.
	stagePreds [][]qgm.Expr
	// postPreds are evaluated after scalar quantifiers are bound.
	postPreds []qgm.Expr
	// matchPreds[q] are the match predicates of subquery quantifier q.
	matchPreds map[*qgm.Quantifier][]qgm.Expr
}

func buildSelectPlan(b *qgm.Box, outer Env) *selectPlan {
	p := &selectPlan{matchPreds: map[*qgm.Quantifier][]qgm.Expr{}}
	for _, q := range b.OrderedQuantifiers() {
		switch q.Type {
		case qgm.ForEach:
			p.fQuants = append(p.fQuants, q)
		case qgm.Scalar:
			p.sQuants = append(p.sQuants, q)
		default:
			p.qQuants = append(p.qQuants, q)
		}
	}
	p.stagePreds = make([][]qgm.Expr, len(p.fQuants)+1)

	local := map[*qgm.Quantifier]int{} // F quantifier -> position+1
	for i, q := range p.fQuants {
		local[q] = i + 1
	}
	subq := map[*qgm.Quantifier]bool{}
	for _, q := range p.sQuants {
		subq[q] = true
	}
	eaq := map[*qgm.Quantifier]bool{}
	for _, q := range p.qQuants {
		eaq[q] = true
	}

	for _, pred := range b.Preds {
		var ea *qgm.Quantifier
		stage := 0
		needsScalar := false
		unbound := false
		qgm.VisitRefs(pred, func(c *qgm.ColRef) {
			switch {
			case eaq[c.Q]:
				ea = c.Q
			case subq[c.Q]:
				needsScalar = true
			case local[c.Q] > 0:
				if local[c.Q] > stage {
					stage = local[c.Q]
				}
			default:
				if _, ok := outer[c.Q]; !ok {
					unbound = true
				}
			}
		})
		switch {
		case unbound:
			// Reference to an outer quantifier not bound in this call:
			// schedule last; evaluation will error with a clear message.
			p.postPreds = append(p.postPreds, pred)
		case ea != nil:
			p.matchPreds[ea] = append(p.matchPreds[ea], pred)
		case needsScalar:
			p.postPreds = append(p.postPreds, pred)
		default:
			p.stagePreds[stage] = append(p.stagePreds[stage], pred)
		}
	}
	return p
}

func (ev *Evaluator) evalSelect(b *qgm.Box, env Env) ([]datum.Row, error) {
	plan := buildSelectPlan(b, env)
	var out []datum.Row

	// Stage-0 predicates (constants and outer-only): if any is not TRUE the
	// box is empty.
	for _, pred := range plan.stagePreds[0] {
		tv, err := EvalPred(pred, env)
		if err != nil {
			return nil, err
		}
		if tv != datum.True {
			return nil, nil
		}
	}

	cur := env.clone()
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(plan.fQuants) {
			ok, err := ev.finishRow(b, plan, cur)
			if err == nil && ok {
				// Scalar-quantifier bindings stay live for the projection.
				var row datum.Row
				row, err = ev.projectRow(b, cur)
				if err == nil {
					out = append(out, row)
				}
			}
			for _, sq := range plan.sQuants {
				delete(cur, sq)
			}
			return err
		}
		q := plan.fQuants[i]
		return ev.joinStage(b, plan, q, i, cur, func() error { return rec(i + 1) })
	}
	if err := rec(0); err != nil {
		return nil, err
	}

	if b.Distinct != qgm.DistinctPreserve {
		var err error
		out, err = ev.dedupe(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// joinStage binds quantifier q (stage i) to each qualifying row and calls
// next. It picks an access path: base-table index lookup, transient hash
// join, or nested-loop scan with filters.
func (ev *Evaluator) joinStage(b *qgm.Box, plan *selectPlan, q *qgm.Quantifier, i int, cur Env, next func() error) error {
	preds := plan.stagePreds[i+1]

	// Split stage predicates into equality keys usable for hashing/index
	// and residual filters.
	type eqKey struct {
		mine  qgm.Expr // references only q (+ outer constants)
		other qgm.Expr // references already-bound quantifiers
	}
	var keys []eqKey
	var residual []qgm.Expr
	isMine := func(e qgm.Expr) bool {
		found, onlyQ := false, true
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			if c.Q == q {
				found = true
			} else if _, bound := cur[c.Q]; !bound {
				onlyQ = false
			}
		})
		return found && onlyQ
	}
	isBound := func(e qgm.Expr) bool {
		ok := true
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			if c.Q == q {
				ok = false
			} else if _, bound := cur[c.Q]; !bound {
				ok = false
			}
		})
		return ok
	}
	for _, pred := range preds {
		if cmp, okc := pred.(*qgm.Cmp); okc && cmp.Op == datum.EQ {
			switch {
			case isMine(cmp.L) && isBound(cmp.R):
				keys = append(keys, eqKey{mine: cmp.L, other: cmp.R})
				continue
			case isMine(cmp.R) && isBound(cmp.L):
				keys = append(keys, eqKey{mine: cmp.R, other: cmp.L})
				continue
			}
		}
		residual = append(residual, pred)
	}

	emit := func(row datum.Row) (bool, error) {
		if err := ev.tick(); err != nil {
			return false, err
		}
		cur[q] = row
		for _, pred := range residual {
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

	// Access path 1: base-table index lookup when every key is a plain
	// column of an indexed column set.
	if q.Ranges.Kind == qgm.KindBaseTable && len(keys) > 0 {
		cols := make([]int, 0, len(keys))
		plain := true
		for _, k := range keys {
			cr, okc := k.mine.(*qgm.ColRef)
			if !okc || cr.Q != q {
				plain = false
				break
			}
			cols = append(cols, cr.Ord)
		}
		if plain {
			rel, err := ev.relation(q.Ranges.Table)
			if err != nil {
				return err
			}
			probe := make(datum.Row, len(keys))
			for j, k := range keys {
				v, err := EvalExpr(k.other, cur)
				if err != nil {
					return err
				}
				probe[j] = v
			}
			if rows, used := rel.Lookup(cols, probe); used {
				ev.Counters.IndexLookups++
				for _, row := range rows {
					ok, err := emit(row)
					if err != nil {
						return err
					}
					if ok {
						if err := next(); err != nil {
							return err
						}
					}
				}
				delete(cur, q)
				return nil
			}
		}
	}

	// Materialize the child rows.
	rows, err := ev.EvalBox(q.Ranges, cur)
	if err != nil {
		return err
	}

	// Access path 2: transient hash join on the equality keys, taken only
	// when the table is reusable across outer bindings: the child is closed
	// (materialized once) and the key expressions reference only q, so the
	// table is cached per (quantifier, key set). A table that cannot be
	// cached would be built over every child row to serve one probe; the
	// scan below does the same work without the build.
	cacheable := len(keys) > 0 && len(rows) > 4 &&
		!ev.NoSubqueryCache && len(ev.freeRefs(q.Ranges)) == 0
	keySig := ""
	for j := 0; cacheable && j < len(keys); j++ {
		qgm.VisitRefs(keys[j].mine, func(c *qgm.ColRef) {
			if c.Q != q {
				cacheable = false
			}
		})
		keySig += keys[j].mine.String() + "|"
	}
	if cacheable {
		ht := ev.hashCache[q][keySig]
		if ht == nil {
			ev.Counters.HashBuilds++
			mines := make([]qgm.Expr, len(keys))
			for j, k := range keys {
				mines[j] = k.mine
			}
			var err error
			ht, err = ev.buildHashTable(q, mines, rows, cur)
			if err != nil {
				return err
			}
			ev.hashInsert(q, keySig, ht)
		}
		delete(cur, q)

		ev.keyBuf = ev.keyBuf[:0]
		for _, k := range keys {
			v, err := EvalExpr(k.other, cur)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil // equality never matches NULL
			}
			ev.keyBuf = v.AppendKey(ev.keyBuf)
		}
		ev.Counters.HashProbes++
		for _, row := range ht[string(ev.keyBuf)] {
			ok, err := emit(row)
			if err != nil {
				return err
			}
			if ok {
				if err := next(); err != nil {
					return err
				}
			}
		}
		delete(cur, q)
		return nil
	}

	// Access path 3: nested-loop scan with all predicates as filters.
	for _, k := range keys {
		residual = append(residual, &qgm.Cmp{Op: datum.EQ, L: k.mine, R: k.other})
	}
	for _, row := range rows {
		ok, err := emit(row)
		if err != nil {
			return err
		}
		if ok {
			if err := next(); err != nil {
				return err
			}
		}
	}
	delete(cur, q)
	return nil
}

// buildHashTable builds the transient join hash table for quantifier q over
// rows, keyed by keyExprs evaluated with q bound to each row; rows with a NULL
// key component are left out, and buckets keep the input row order. Buckets
// are found through an index map during the build because a map lookup with
// string(buf) does not allocate while a map assignment does: a key string is
// allocated once per distinct key, not per row.
func (ev *Evaluator) buildHashTable(q *qgm.Quantifier, keyExprs []qgm.Expr, rows []datum.Row, cur Env) (map[string][]datum.Row, error) {
	env := cur.clone()
	idx := make(map[string]int, len(rows))
	var buckets [][]datum.Row
	buf := make([]byte, 0, 64)
	for _, row := range rows {
		env[q] = row
		buf = buf[:0]
		null := false
		for _, e := range keyExprs {
			v, err := EvalExpr(e, env)
			if err != nil {
				return nil, err
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
		if i, ok := idx[string(buf)]; ok {
			buckets[i] = append(buckets[i], row)
		} else {
			idx[string(buf)] = len(buckets)
			buckets = append(buckets, []datum.Row{row})
		}
	}
	ht := make(map[string][]datum.Row, len(idx))
	for k, i := range idx {
		ht[k] = buckets[i]
	}
	return ht, nil
}

// finishRow binds scalar quantifiers, evaluates post-predicates, and checks
// E/A quantifiers. It reports whether the current binding qualifies.
func (ev *Evaluator) finishRow(b *qgm.Box, plan *selectPlan, cur Env) (bool, error) {
	for _, q := range plan.sQuants {
		rows, err := ev.evalSubquery(q, cur)
		if err != nil {
			return false, err
		}
		switch {
		case len(rows) == 0:
			null := make(datum.Row, len(q.Ranges.Output))
			for i := range null {
				null[i] = datum.NullOf(q.Ranges.Output[i].Type)
			}
			cur[q] = null
		case len(rows) == 1:
			cur[q] = rows[0]
		default:
			return false, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
		}
	}
	for _, pred := range plan.postPreds {
		tv, err := EvalPred(pred, cur)
		if err != nil {
			return false, err
		}
		if tv != datum.True {
			return false, nil
		}
	}

	for _, q := range plan.qQuants {
		rows, err := ev.evalSubquery(q, cur)
		if err != nil {
			return false, err
		}
		match := plan.matchPreds[q]
		pass, err := ev.checkQuantifier(q, match, rows, cur)
		if err != nil {
			return false, err
		}
		if !pass {
			return false, nil
		}
	}
	return true, nil
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

// evalSubquery evaluates the subquery of quantifier q under the current
// bindings, memoizing per distinct correlation values unless disabled.
func (ev *Evaluator) evalSubquery(q *qgm.Quantifier, cur Env) ([]datum.Row, error) {
	refs := ev.freeRefs(q.Ranges)
	if ev.NoSubqueryCache {
		ev.Counters.SubqueryEvals++
		return ev.EvalBox(q.Ranges, cur)
	}
	if len(refs) == 0 {
		return ev.EvalBox(q.Ranges, cur) // memoized at box level
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
	// Miss: materialize the key string before EvalBox, which reuses keyBuf.
	key := string(ev.keyBuf)
	ev.Counters.SubqueryEvals++
	rows, err := ev.EvalBox(q.Ranges, cur)
	if err != nil {
		return nil, err
	}
	ev.subInsert(q, cache, key, rows)
	return rows, nil
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

func (ev *Evaluator) evalGroupBy(b *qgm.Box, env Env) ([]datum.Row, error) {
	inQ := b.Quantifiers[0]
	rows, err := ev.EvalBox(inQ.Ranges, env)
	if err != nil {
		return nil, err
	}
	gt := ev.newGroupTable("group-by", nil)
	defer gt.close()

	cur := env.clone()
	var gkBuf []byte
	for _, row := range rows {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		cur[inQ] = row
		gkBuf, err = ev.accumulateGroup(gt, b, cur, gkBuf)
		if err != nil {
			return nil, err
		}
	}
	delete(cur, inQ)
	return emitGroups(gt, b)
}

// accumulateGroup folds one input row (already bound in env) into gt: group
// key, entry lookup/insert, aggregate update, DISTINCT-argument filtering.
// Shared by the box-at-a-time evaluator and the streaming group-by so
// grouped results agree exactly. The key is evaluated into gt's scratch row
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

func (ev *Evaluator) evalUnion(b *qgm.Box, env Env) ([]datum.Row, error) {
	var out []datum.Row
	for _, q := range b.Quantifiers {
		rows, err := ev.EvalBox(q.Ranges, env)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	if b.Distinct != qgm.DistinctPreserve {
		var err error
		out, err = ev.dedupe(out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (ev *Evaluator) evalIntersectExcept(b *qgm.Box, env Env) ([]datum.Row, error) {
	left, err := ev.EvalBox(b.Quantifiers[0].Ranges, env)
	if err != nil {
		return nil, err
	}
	right, err := ev.EvalBox(b.Quantifiers[1].Ranges, env)
	if err != nil {
		return nil, err
	}
	counts := ev.newCountTable("setop", nil)
	defer counts.close()
	for _, row := range right {
		ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
		if err := counts.inc(ev.keyBuf); err != nil {
			return nil, err
		}
	}
	distinct := b.Distinct != qgm.DistinctPreserve
	var out []datum.Row
	seen := ev.newSeenSet("setop-seen", nil)
	defer seen.close()
	for _, row := range left {
		ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
		c, err := counts.count(ev.keyBuf)
		if err != nil {
			return nil, err
		}
		inRight := c > 0
		switch b.Kind {
		case qgm.KindIntersect:
			if !inRight {
				continue
			}
			if distinct {
				dup, err := seen.checkAndAdd(ev.keyBuf)
				if err != nil {
					return nil, err
				}
				if dup {
					continue
				}
			} else {
				// INTERSECT ALL: min of multiplicities.
				if err := counts.dec(ev.keyBuf); err != nil {
					return nil, err
				}
			}
			out = append(out, row)
		case qgm.KindExcept:
			if distinct {
				if inRight {
					continue
				}
				dup, err := seen.checkAndAdd(ev.keyBuf)
				if err != nil {
					return nil, err
				}
				if dup {
					continue
				}
				out = append(out, row)
			} else {
				if inRight {
					// EXCEPT ALL: subtract multiplicities.
					if err := counts.dec(ev.keyBuf); err != nil {
						return nil, err
					}
					continue
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}

func (ev *Evaluator) dedupe(rows []datum.Row) ([]datum.Row, error) {
	seen := ev.newSeenSet("dedupe", nil)
	defer seen.close()
	out := rows[:0:0]
	for _, row := range rows {
		ev.keyBuf = datum.AppendKey(ev.keyBuf[:0], row)
		dup, err := seen.checkAndAdd(ev.keyBuf)
		if err != nil {
			return nil, err
		}
		if dup {
			continue
		}
		out = append(out, row)
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
