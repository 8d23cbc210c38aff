package rewrite

import (
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// CorrelateViews transforms the graph into the "Correlated" execution shape
// of Table 1: equality join predicates between a view (or derived table)
// and earlier tables are pushed INTO a private copy of the view as
// correlated predicates, so the view is re-evaluated once per outer row —
// DB2's classic correlated evaluation of nested tables, "a leading
// optimization technique for complex SQL queries" that the paper benchmarks
// EMST against. Lowering bridges each correlated copy as an AccessCorr stage
// over the copy's own subtree, planned with the outer columns bound (an
// index probe where the pushed equality meets an index), and the executor
// re-opens that subtree per outer row; its NoSubqueryCache mode keeps any
// result from being reused across rows. This reproduces both correlation's
// wins (very selective outers) and its disasters (wide outers
// re-triggering expensive views).
func CorrelateViews(g *qgm.Graph) {
	for changed := true; changed; {
		changed = false
		for _, b := range g.Reachable() {
			if b.Kind != qgm.KindSelect {
				continue
			}
			if correlateBox(g, b) {
				changed = true
			}
		}
	}
	g.GC()
}

func correlateBox(g *qgm.Graph, b *qgm.Box) bool {
	// depends[q] holds the quantifiers whose values q's (correlated) child
	// needs; sinking a predicate adds edges and must keep the relation
	// acyclic so the plan optimizer can order sources before their
	// dependents.
	depends := map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}
	for _, q := range b.Quantifiers {
		for _, other := range b.Quantifiers {
			if q != other && boxRefsQuant(q.Ranges, other) {
				addDep(depends, q, other)
			}
		}
	}
	any := false
	for {
		moved := false
		for pi, pred := range b.Preds {
			target, sources, ok := correlateTarget(g, b, pred)
			if !ok || dependencyCycle(depends, target, sources) {
				continue
			}
			// Privatize the whole view blob before mutating it: the blob is
			// re-computed per outer row, so sharing is gone anyway.
			if g.UseCount(target.Ranges) > 1 {
				cp, _ := g.CopyTree(target.Ranges)
				target.Ranges = cp
			} else if !treePrivate(g, target.Ranges) {
				cp, _ := g.CopyTree(target.Ranges)
				target.Ranges = cp
			}
			if !CanAbsorbPredicate(g, target, pred) {
				continue
			}
			b.Preds = append(b.Preds[:pi], b.Preds[pi+1:]...)
			PushPredicate(g, target, pred)
			for _, src := range sources {
				addDep(depends, target, src)
			}
			// The view is now correlated: clear any stale join order so the
			// plan optimizer re-derives one respecting the dependency.
			b.JoinOrder = nil
			moved = true
			any = true
			break
		}
		if !moved {
			if any {
				setTopologicalOrder(b, depends)
			}
			return any
		}
	}
}

// setTopologicalOrder stores a join order with every correlated view after
// the quantifiers it depends on, so the graph is executable even before the
// plan optimizer re-runs (which will keep the constraint).
func setTopologicalOrder(b *qgm.Box, depends map[*qgm.Quantifier]map[*qgm.Quantifier]bool) {
	idx := map[*qgm.Quantifier]int{}
	for i, q := range b.Quantifiers {
		idx[q] = i
	}
	placed := map[*qgm.Quantifier]bool{}
	var order []int
	for len(order) < len(b.Quantifiers) {
		progressed := false
		for _, q := range b.Quantifiers {
			if placed[q] {
				continue
			}
			ready := true
			for dep := range depends[q] {
				if dep.Parent == b && !placed[dep] {
					ready = false
					break
				}
			}
			if ready {
				placed[q] = true
				order = append(order, idx[q])
				progressed = true
			}
		}
		if !progressed {
			// Cycle (should be prevented by dependencyCycle): fall back to
			// declaration order.
			b.JoinOrder = nil
			return
		}
	}
	b.JoinOrder = order
}

// treePrivate reports whether every non-base box reachable from b is used
// only within that tree (safe to mutate).
func treePrivate(g *qgm.Graph, b *qgm.Box) bool {
	seen := map[*qgm.Box]bool{}
	var walk func(box *qgm.Box) bool
	walk = func(box *qgm.Box) bool {
		if box.Kind == qgm.KindBaseTable || seen[box] {
			return true
		}
		seen[box] = true
		if box != b && g.UseCount(box) > 1 {
			return false
		}
		for _, q := range box.Quantifiers {
			if !walk(q.Ranges) {
				return false
			}
		}
		return true
	}
	return walk(b)
}

// correlateTarget picks the quantifier into which pred should sink for
// correlated execution: an equality comparison with one side referencing
// exactly one ForEach quantifier over a non-base box, the other side
// referencing only sibling ForEach quantifiers (the sources the correlated
// view will depend on).
func correlateTarget(g *qgm.Graph, b *qgm.Box, pred qgm.Expr) (*qgm.Quantifier, []*qgm.Quantifier, bool) {
	cmp, ok := pred.(*qgm.Cmp)
	if !ok || cmp.Op != datum.EQ {
		return nil, nil, false
	}
	local := map[*qgm.Quantifier]bool{}
	for _, q := range b.Quantifiers {
		if q.Type == qgm.ForEach {
			local[q] = true
		}
	}
	try := func(mine, other qgm.Expr) (*qgm.Quantifier, []*qgm.Quantifier, bool) {
		var target *qgm.Quantifier
		single := true
		qgm.VisitRefs(mine, func(c *qgm.ColRef) {
			if target == nil {
				target = c.Q
			} else if target != c.Q {
				single = false
			}
		})
		if target == nil || !single {
			return nil, nil, false
		}
		if target.Type != qgm.ForEach || target.Parent != b {
			return nil, nil, false
		}
		if target.Ranges.Kind == qgm.KindBaseTable || target.Ranges.IsMagic() {
			return nil, nil, false
		}
		if target.Ranges.Recursive || qgm.InCycle(target.Ranges) {
			return nil, nil, false // recursive components evaluate as units
		}
		var sources []*qgm.Quantifier
		ok := true
		qgm.VisitRefs(other, func(c *qgm.ColRef) {
			if c.Q == target || !local[c.Q] {
				ok = false
				return
			}
			sources = append(sources, c.Q)
		})
		if !ok || len(sources) == 0 {
			return nil, nil, false
		}
		return target, sources, true
	}
	if t, srcs, ok := try(cmp.L, cmp.R); ok {
		return t, srcs, true
	}
	if t, srcs, ok := try(cmp.R, cmp.L); ok {
		return t, srcs, true
	}
	return nil, nil, false
}

func addDep(depends map[*qgm.Quantifier]map[*qgm.Quantifier]bool, from, to *qgm.Quantifier) {
	m := depends[from]
	if m == nil {
		m = map[*qgm.Quantifier]bool{}
		depends[from] = m
	}
	m[to] = true
}

// dependencyCycle reports whether making target depend on sources would
// close a cycle (some source transitively depends on target already).
func dependencyCycle(depends map[*qgm.Quantifier]map[*qgm.Quantifier]bool, target *qgm.Quantifier, sources []*qgm.Quantifier) bool {
	var reach func(from, to *qgm.Quantifier, seen map[*qgm.Quantifier]bool) bool
	reach = func(from, to *qgm.Quantifier, seen map[*qgm.Quantifier]bool) bool {
		if from == to {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		for next := range depends[from] {
			if reach(next, to, seen) {
				return true
			}
		}
		return false
	}
	for _, src := range sources {
		if reach(src, target, map[*qgm.Quantifier]bool{}) {
			return true
		}
	}
	return false
}

// boxRefsQuant reports whether sub's subtree references quantifier q.
func boxRefsQuant(sub *qgm.Box, q *qgm.Quantifier) bool {
	found := false
	seen := map[*qgm.Box]bool{}
	var walk func(box *qgm.Box)
	walk = func(box *qgm.Box) {
		if box == nil || seen[box] || found {
			return
		}
		seen[box] = true
		qgm.VisitBoxExprs(box, func(e qgm.Expr) {
			qgm.VisitRefs(e, func(c *qgm.ColRef) {
				if c.Q == q {
					found = true
				}
			})
		})
		for _, qq := range box.Quantifiers {
			walk(qq.Ranges)
		}
		walk(box.MagicBox)
	}
	walk(sub)
	return found
}
