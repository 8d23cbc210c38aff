package plan

import (
	"fmt"
	"strings"

	"starmagic/internal/datum"
	"starmagic/internal/opt"
	"starmagic/internal/qgm"
)

// Lower turns an optimized QGM graph into a physical plan. Each box becomes
// an operator subtree; select boxes consume the optimizer's JoinOrder to lay
// out pipeline stages with explicit access paths. Boxes the streaming
// executor cannot (or should not) stream — correlated subtrees, shared
// common subexpressions, extension kinds, recursive fixpoints — lower to
// bridge operators that evaluate through the classic box-at-a-time
// evaluator, so every graph the evaluator accepts has a plan.
func Lower(g *qgm.Graph) *Plan {
	return LowerWith(g, opt.NewEstimator())
}

// LowerWith is Lower with a caller-supplied estimator, so operator EstRows
// annotations match the estimates the plan was optimized with.
func LowerWith(g *qgm.Graph, est *opt.Estimator) *Plan {
	lw := &lowerer{
		p:         &Plan{Graph: g},
		est:       est,
		uses:      map[*qgm.Box]int{},
		freeCache: map[*qgm.Box]bool{},
	}
	for _, b := range g.Boxes {
		for _, q := range b.Quantifiers {
			lw.uses[q.Ranges]++
		}
		if b.MagicBox != nil {
			lw.uses[b.MagicBox]++
		}
	}
	lw.uses[g.Top]++

	root := lw.lowerBox(g.Top)
	if len(g.OrderBy) > 0 {
		s := lw.p.newNode(OpSort, nil, "sort")
		s.OrderBy = g.OrderBy
		s.Detail = orderDetail(g.OrderBy)
		s.EstRows = root.EstRows
		s.EstMem = root.EstMem
		s.Children = []*Node{root}
		root = s
	}
	if g.Limit >= 0 {
		l := lw.p.newNode(OpLimit, nil, fmt.Sprintf("limit %d", g.Limit))
		l.N = g.Limit
		l.EstRows = float64(g.Limit)
		l.Children = []*Node{root}
		root = l
	}
	if g.HiddenCols > 0 {
		t := lw.p.newNode(OpTrim, nil, "trim")
		t.Hidden = g.HiddenCols
		t.Detail = fmt.Sprintf("%d hidden cols", g.HiddenCols)
		t.EstRows = root.EstRows
		t.EstMem = root.EstMem
		t.Children = []*Node{root}
		root = t
	}
	lw.p.Root = root
	return lw.p
}

type lowerer struct {
	p         *Plan
	est       *opt.Estimator
	uses      map[*qgm.Box]int
	freeCache map[*qgm.Box]bool
}

// hasFree reports whether b's subtree references quantifiers declared
// outside it (correlation). Mirrors the evaluator's closedness test.
func (lw *lowerer) hasFree(b *qgm.Box) bool {
	if v, ok := lw.freeCache[b]; ok {
		return v
	}
	owned := map[*qgm.Quantifier]bool{}
	seen := map[*qgm.Box]bool{}
	var collect func(box *qgm.Box)
	collect = func(box *qgm.Box) {
		if box == nil || seen[box] {
			return
		}
		seen[box] = true
		for _, q := range box.Quantifiers {
			owned[q] = true
			collect(q.Ranges)
		}
		collect(box.MagicBox)
	}
	collect(b)

	free := false
	check := func(e qgm.Expr) {
		if e == nil || free {
			return
		}
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			if !owned[c.Q] {
				free = true
			}
		})
	}
	for box := range seen {
		for _, e := range box.Preds {
			check(e)
		}
		for _, oc := range box.Output {
			check(oc.Expr)
		}
		for _, e := range box.GroupBy {
			check(e)
		}
		for _, a := range box.Aggs {
			check(a.Arg)
		}
	}
	lw.freeCache[b] = free
	return free
}

// bridge creates a box-eval operator: the box is materialized through the
// classic evaluator (memoized when closed).
func (lw *lowerer) bridge(b *qgm.Box, reason string) *Node {
	n := lw.p.newNode(OpBoxEval, b, "materialize "+boxName(b))
	n.Detail = reason
	n.EstRows = lw.est.Card(b)
	n.EstMem = n.EstRows * estWidth(b)
	return n
}

// estWidth is a coarse per-row byte estimate (datum struct size per output
// column plus a slice header) used for EstMem.
func estWidth(b *qgm.Box) float64 {
	cols := 4
	if b != nil && len(b.Output) > 0 {
		cols = len(b.Output)
	}
	return float64(24 + 48*cols)
}

// lowerBox lowers b as one consumer's input. Correlated boxes never reach
// it: lowerSelect bridges them as AccessCorr stage children or as subquery
// and scalar inputs. A recursive cycle stops at its fixpoint node.
func (lw *lowerer) lowerBox(b *qgm.Box) *Node {
	switch {
	case b.Recursive:
		n := lw.p.newNode(OpFixpoint, b, "fixpoint "+boxName(b))
		n.Detail = "naive iteration"
		n.EstRows = lw.est.Card(b)
		n.EstMem = n.EstRows * estWidth(b)
		return n
	case lw.uses[b] > 1 && b.Kind != qgm.KindBaseTable:
		// A shared box is evaluated once and its rows serve every consumer.
		// Its own streamed plan hangs below each bridge; the consumer that
		// runs first drains it into the evaluator's box memo, the others
		// read the memo and leave their copy unopened.
		n := lw.bridge(b, "shared")
		n.Children = []*Node{lw.lowerOwn(b)}
		return n
	}
	return lw.lowerOwn(b)
}

// lowerOwn lowers b itself to a streamed operator subtree, whatever its
// sharing.
func (lw *lowerer) lowerOwn(b *qgm.Box) *Node {
	var n *Node
	switch b.Kind {
	case qgm.KindBaseTable:
		n = lw.p.newNode(OpScan, b, "scan "+b.Table.Name)
	case qgm.KindSelect:
		n = lw.lowerSelect(b)
	case qgm.KindGroupBy:
		n = lw.p.newNode(OpGroupBy, b, "group-by "+boxName(b))
		n.Detail = fmt.Sprintf("%d keys, %d aggs", len(b.GroupBy), len(b.Aggs))
		n.Children = []*Node{lw.lowerBox(b.Quantifiers[0].Ranges)}
		n.Vec = vectorizableGroupBy(n)
	case qgm.KindUnion:
		n = lw.p.newNode(OpUnion, b, "union "+boxName(b))
		for _, q := range b.Quantifiers {
			n.Children = append(n.Children, lw.lowerBox(q.Ranges))
		}
	case qgm.KindIntersect:
		n = lw.p.newNode(OpIntersect, b, "intersect "+boxName(b))
		n.Detail = setDetail(b)
		n.Children = []*Node{lw.lowerBox(b.Quantifiers[0].Ranges), lw.lowerBox(b.Quantifiers[1].Ranges)}
	case qgm.KindExcept:
		n = lw.p.newNode(OpExcept, b, "except "+boxName(b))
		n.Detail = setDetail(b)
		n.Children = []*Node{lw.lowerBox(b.Quantifiers[0].Ranges), lw.lowerBox(b.Quantifiers[1].Ranges)}
	default:
		return lw.bridge(b, "extension kind")
	}
	n.EstRows = lw.est.Card(b)
	n.EstMem = n.EstRows * estWidth(b)

	// Duplicate elimination of select and union boxes is a distinct wrapper
	// (intersect/except handle their distinct variants inline — EXCEPT
	// DISTINCT is not distinct-of-EXCEPT-ALL).
	if b.Distinct != qgm.DistinctPreserve && (b.Kind == qgm.KindSelect || b.Kind == qgm.KindUnion) {
		d := lw.p.newNode(OpDistinct, b, "distinct")
		d.EstRows = n.EstRows
		d.EstMem = n.EstMem
		d.Children = []*Node{n}
		d.BoxRoot = true
		return d
	}
	n.BoxRoot = true
	return n
}

// lowerSelect lays out a select box's join pipeline: predicate staging and
// equality-key extraction mirror the evaluator's per-box planning, but are
// resolved once at lowering time against the optimizer's join order.
func (lw *lowerer) lowerSelect(b *qgm.Box) *Node {
	n := lw.p.newNode(OpSelect, b, "select "+boxName(b))

	var fQ, sQ, qQ []*qgm.Quantifier
	for _, q := range b.OrderedQuantifiers() {
		switch q.Type {
		case qgm.ForEach:
			fQ = append(fQ, q)
		case qgm.Scalar:
			sQ = append(sQ, q)
		default:
			qQ = append(qQ, q)
		}
	}

	pos := map[*qgm.Quantifier]int{} // F quantifier -> position+1
	for i, q := range fQ {
		pos[q] = i + 1
	}
	isScalar := map[*qgm.Quantifier]bool{}
	for _, q := range sQ {
		isScalar[q] = true
	}
	isEA := map[*qgm.Quantifier]bool{}
	for _, q := range qQ {
		isEA[q] = true
	}

	// stagePreds[i] holds predicates evaluable once fQ[:i] are bound.
	stagePreds := make([][]qgm.Expr, len(fQ)+1)
	matchPreds := map[*qgm.Quantifier][]qgm.Expr{}
	for _, pred := range b.Preds {
		var ea *qgm.Quantifier
		stage := 0
		needsScalar := false
		unbound := false
		qgm.VisitRefs(pred, func(c *qgm.ColRef) {
			switch {
			case isEA[c.Q]:
				ea = c.Q
			case isScalar[c.Q]:
				needsScalar = true
			case pos[c.Q] > 0:
				if pos[c.Q] > stage {
					stage = pos[c.Q]
				}
			default:
				unbound = true
			}
		})
		switch {
		case unbound:
			n.PostPreds = append(n.PostPreds, pred)
		case ea != nil:
			matchPreds[ea] = append(matchPreds[ea], pred)
		case needsScalar:
			n.PostPreds = append(n.PostPreds, pred)
		default:
			stagePreds[stage] = append(stagePreds[stage], pred)
		}
	}
	n.ConstPreds = stagePreds[0]

	var detail []string
	probes := 1.0 // estimated bindings reaching stage i, as opt.pipelineCost counts them
	for i, q := range fQ {
		st := Stage{Quant: q}
		preds := stagePreds[i+1]
		childBox := q.Ranges
		corr := lw.hasFree(childBox)

		// Split stage predicates into strict equality keys (one side
		// references only q, the other only earlier stages) and residual
		// filters.
		var residual []qgm.Expr
		if !corr {
			earlier := map[*qgm.Quantifier]bool{}
			for _, eq := range fQ[:i] {
				earlier[eq] = true
			}
			for _, pred := range preds {
				if cmp, ok := pred.(*qgm.Cmp); ok && cmp.Op == datum.EQ {
					switch {
					case refsOnly(cmp.L, q) && refsWithin(cmp.R, earlier):
						st.KeyMine = append(st.KeyMine, cmp.L)
						st.KeyOther = append(st.KeyOther, cmp.R)
						continue
					case refsOnly(cmp.R, q) && refsWithin(cmp.L, earlier):
						st.KeyMine = append(st.KeyMine, cmp.R)
						st.KeyOther = append(st.KeyOther, cmp.L)
						continue
					}
				}
				residual = append(residual, pred)
			}
		}

		indexable := len(st.KeyMine) > 0 && childBox.Kind == qgm.KindBaseTable
		if indexable {
			for _, m := range st.KeyMine {
				cr, ok := m.(*qgm.ColRef)
				if !ok || cr.Q != q {
					indexable = false
					break
				}
				st.IndexCols = append(st.IndexCols, cr.Ord)
			}
			// No index on exactly these columns: the stage is a hash join,
			// planned as one here rather than discovered by the executor.
			// An index costs one lookup per binding: once the stage is
			// estimated to probe more often than the table has rows, one hash
			// build over the table is the cheaper plan.
			if !indexable || !childBox.Table.HasIndex(st.IndexCols) || probes > lw.est.Card(childBox) {
				indexable, st.IndexCols = false, nil
			}
		}
		probes *= lw.est.Card(childBox)
		for _, pred := range preds {
			probes *= lw.est.Selectivity(b, pred)
		}
		probes = max(probes, 1)

		switch {
		case corr:
			st.Access = AccessCorr
			st.Residual = preds
			st.Child = lw.bridge(childBox, "correlated")
		case indexable:
			st.Access = AccessIndex
			st.Residual = residual
			st.Child = lw.lowerBox(childBox)
		case i == 0:
			st.Access = AccessStream
			st.Residual = preds
			st.KeyMine, st.KeyOther = nil, nil
			st.Child = lw.lowerBox(childBox)
		case len(st.KeyMine) > 0:
			st.Access = AccessHash
			st.Residual = residual
			st.Child = lw.lowerBox(childBox)
		default:
			st.Access = AccessScan
			st.Residual = preds
			st.Child = lw.lowerBox(childBox)
		}
		n.Stages = append(n.Stages, st)
		n.Children = append(n.Children, st.Child)
		detail = append(detail, q.Name+":"+st.Access.String())
	}

	n.Scalars = sQ
	for _, q := range sQ {
		reason := "scalar, memoized"
		if lw.hasFree(q.Ranges) {
			reason = "scalar, correlated"
		}
		child := lw.bridge(q.Ranges, reason)
		n.Children = append(n.Children, child)
		detail = append(detail, q.Name+":scalar")
	}

	for _, q := range qQ {
		sq := Subquery{Quant: q, Match: matchPreds[q], Mode: SubqBridge}
		closed := !lw.hasFree(q.Ranges)
		onlyQ := true
		allowed := map[*qgm.Quantifier]bool{q: true}
		for _, m := range sq.Match {
			if !qgm.OnlyRefs(m, allowed) {
				onlyQ = false
				break
			}
		}
		kind := "semi"
		if q.Type == qgm.ForAll {
			kind = "anti"
		}
		if closed && onlyQ {
			// The check's outcome is independent of the outer bindings:
			// stream the subquery and stop at the first decisive row.
			sq.Mode = SubqFirstMatch
			sq.Child = lw.lowerBox(q.Ranges)
			detail = append(detail, q.Name+":"+kind+"-first-match")
		} else {
			reason := kind + "-join, memoized"
			if !closed {
				reason = kind + "-join, correlated"
			}
			sq.Child = lw.bridge(q.Ranges, reason)
			detail = append(detail, q.Name+":"+kind)
		}
		n.Subqs = append(n.Subqs, sq)
		n.Children = append(n.Children, sq.Child)
	}

	n.Detail = strings.Join(detail, ", ")
	n.Vec = vectorizableSelect(n)
	return n
}

// vectorizableSelect is the lowering-time vectorizability decision for a
// select pipeline. The driving stage is either a base-table scan whose
// residual filters are kernel-compilable, or any other input without
// residual filters — a magic or supplementary-magic box, say — provided the
// next stage hashes a base table on the driver's columns alone (the executor
// then builds the join table over the driver's few rows and streams the base
// table through it, instead of building over the whole table) or is an
// index stage. Every later stage is a hash join or an index stage, keyed on
// at most vec.MaxKeyCols plain column/constant expressions, and nothing
// forces row-at-a-time finishing (scalar subqueries, semi/anti checks,
// post-predicates). The executor probes an index stage once per
// distinct key and filters the bucket with column kernels. It re-verifies at
// build time against runtime types and the memory mode; this flag is the
// shared structural judgment surfaced in EXPLAIN.
func vectorizableSelect(n *Node) bool {
	if len(n.Scalars) > 0 || len(n.Subqs) > 0 || len(n.PostPreds) > 0 || len(n.Stages) == 0 {
		return false
	}
	for i := range n.Stages {
		st := &n.Stages[i]
		if i == 0 {
			if st.Access != AccessStream {
				return false
			}
			if st.Child.Kind != OpScan {
				if len(st.Residual) > 0 || len(n.Stages) < 2 {
					return false
				}
				if next := &n.Stages[1]; next.Access != AccessIndex && !drivesBaseBuild(next, st.Quant) {
					return false
				}
				continue
			}
			for _, e := range st.Residual {
				if !vecFilterable(e, st.Quant) {
					return false
				}
			}
			continue
		}
		if st.Access != AccessHash && st.Access != AccessIndex || len(st.KeyMine) == 0 || len(st.KeyMine) > maxVecKeys {
			return false
		}
		for _, e := range st.KeyMine {
			if cr, ok := e.(*qgm.ColRef); !ok || cr.Q != st.Quant {
				return false
			}
		}
		for _, e := range st.KeyOther {
			switch e.(type) {
			case *qgm.ColRef, *qgm.Const, *qgm.Param:
			default:
				return false
			}
		}
	}
	return true
}

// drivesBaseBuild reports whether stage st hashes a base table on columns of
// the driving quantifier q alone, so its join table can be built over q's
// rows instead.
func drivesBaseBuild(st *Stage, q *qgm.Quantifier) bool {
	if st.Access != AccessHash || st.Child.Kind != OpScan {
		return false
	}
	for _, e := range st.KeyOther {
		if cr, ok := e.(*qgm.ColRef); !ok || cr.Q != q {
			return false
		}
	}
	return true
}

// vectorizableGroupBy is the lowering-time decision for vectorized hash
// aggregation: the input is a vectorizable select pipeline, there are at
// most vec.MaxKeyCols group keys, no aggregate is DISTINCT, and every key
// and aggregate argument is an input column the select produces as a plain
// column of its driving stage or of a base-table hash or index stage, or as
// kernel-compilable arithmetic over the driving stage (a scan, or a
// materialized driver). The executor re-verifies against runtime types and
// the memory mode.
func vectorizableGroupBy(n *Node) bool {
	b, sel := n.Box, n.Children[0]
	if sel.Kind != OpSelect || !sel.Vec || len(b.GroupBy) > maxVecKeys {
		return false
	}
	columnar := func(e qgm.Expr) bool {
		cr, ok := e.(*qgm.ColRef)
		if !ok || cr.Q != b.Quantifiers[0] || cr.Ord >= len(sel.Box.Output) {
			return false
		}
		se := sel.Box.Output[cr.Ord].Expr
		x, ok := se.(*qgm.ColRef)
		if !ok {
			return vecNumeric(se, sel.Stages[0].Quant)
		}
		for i := range sel.Stages {
			if st := &sel.Stages[i]; st.Quant == x.Q {
				return i == 0 || st.Child.Kind == OpScan
			}
		}
		return false
	}
	for _, ge := range b.GroupBy {
		if !columnar(ge) {
			return false
		}
	}
	for _, a := range b.Aggs {
		if a.Distinct || a.Arg != nil && !columnar(a.Arg) {
			return false
		}
	}
	return true
}

// maxVecKeys mirrors vec.MaxKeyCols without importing the executor's vec
// package into the plan layer.
const maxVecKeys = 4

// vecFilterable reports whether a driving-stage filter can compile to
// column kernels: comparisons, three-valued logic, IS [NOT] NULL, and
// numeric arithmetic over the stage's own columns, constants, and
// parameters. Functions, LIKE, CASE, concatenation, and references to other
// quantifiers force the row pipeline.
func vecFilterable(e qgm.Expr, q *qgm.Quantifier) bool {
	switch x := e.(type) {
	case *qgm.Const, *qgm.Param:
		return true
	case *qgm.ColRef:
		return x.Q == q
	case *qgm.Cmp:
		return vecFilterable(x.L, q) && vecFilterable(x.R, q)
	case *qgm.Logic:
		for _, a := range x.Args {
			if !vecFilterable(a, q) {
				return false
			}
		}
		return true
	case *qgm.Not:
		return vecFilterable(x.X, q)
	case *qgm.IsNull:
		return vecFilterable(x.X, q)
	case *qgm.Arith:
		return vecFilterable(x.L, q) && vecFilterable(x.R, q)
	case *qgm.Neg:
		return vecFilterable(x.X, q)
	}
	return false
}

// vecNumeric reports whether e is arithmetic the executor's numeric VM
// compiles: +, -, * and negation over q's columns, constants and parameters.
func vecNumeric(e qgm.Expr, q *qgm.Quantifier) bool {
	switch x := e.(type) {
	case *qgm.Const, *qgm.Param:
		return true
	case *qgm.ColRef:
		return x.Q == q
	case *qgm.Arith:
		return x.Op != datum.Div && x.Op != datum.Mod && vecNumeric(x.L, q) && vecNumeric(x.R, q)
	case *qgm.Neg:
		return vecNumeric(x.X, q)
	}
	return false
}

// refsOnly reports whether e references quantifier q and nothing else.
func refsOnly(e qgm.Expr, q *qgm.Quantifier) bool {
	found, only := false, true
	qgm.VisitRefs(e, func(c *qgm.ColRef) {
		if c.Q == q {
			found = true
		} else {
			only = false
		}
	})
	return found && only
}

// refsWithin reports whether every reference in e targets a quantifier in
// allowed (constant expressions qualify).
func refsWithin(e qgm.Expr, allowed map[*qgm.Quantifier]bool) bool {
	ok := true
	qgm.VisitRefs(e, func(c *qgm.ColRef) {
		if !allowed[c.Q] {
			ok = false
		}
	})
	return ok
}

func boxName(b *qgm.Box) string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("%s#%d", b.Kind, b.ID)
}

func orderDetail(specs []qgm.OrderSpec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		dir := "asc"
		if s.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("c%d %s", s.Ord, dir)
	}
	return strings.Join(parts, ", ")
}

func setDetail(b *qgm.Box) string {
	if b.Distinct != qgm.DistinctPreserve {
		return "distinct"
	}
	return "all"
}
