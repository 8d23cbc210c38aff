package opt

import (
	"math"

	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// Cost-model constants: relative work units per row.
const (
	costProbe   = 2.0 // hash/index probe per outer row
	costScanRow = 1.0 // nested-loop scan per row pair
	costOutRow  = 0.5 // producing an output row
	costGroup   = 1.5 // grouping per input row
	// dpLimit is the maximum ForEach quantifier count for exhaustive
	// dynamic programming; wider boxes fall back to greedy ordering, the
	// pruning the paper expects optimizers to employ (§3.2).
	dpLimit = 12
)

// Result carries the outcome of plan optimization.
type Result struct {
	// Cost is the estimated total plan cost of the graph.
	Cost float64
	// PlansConsidered counts join orders examined (the §3.2 enumeration-
	// cost study reads it).
	PlansConsidered int
}

// Optimize chooses a join order for every select box reachable in the graph
// (storing it in Box.JoinOrder) and returns the estimated plan cost. It is
// deterministic.
func Optimize(g *qgm.Graph) Result {
	return OptimizeEst(g, NewEstimator())
}

// OptimizeEst is Optimize with a caller-supplied estimator, so the
// flat-statistics mode reaches join ordering and costing.
func OptimizeEst(g *qgm.Graph, e *Estimator) Result {
	res := Result{}
	for _, b := range g.Reachable() {
		if b.Kind != qgm.KindSelect {
			continue
		}
		considered := orderSelectBox(e, b)
		res.PlansConsidered += considered
	}
	res.Cost = GraphCostEst(g, e)
	return res
}

// GraphCost estimates the total execution cost of the graph under the
// current join orders.
func GraphCost(g *qgm.Graph) float64 {
	return GraphCostEst(g, NewEstimator())
}

// GraphCostEst is GraphCost with a caller-supplied estimator.
func GraphCostEst(g *qgm.Graph, e *Estimator) float64 {
	total := 0.0
	for _, b := range g.Reachable() {
		total += e.boxCost(b)
	}
	return total
}

func (e *Estimator) boxCost(b *qgm.Box) float64 {
	switch b.Kind {
	case qgm.KindBaseTable:
		return 0 // read cost is charged to consumers
	case qgm.KindSelect:
		cost, _ := e.pipelineCost(b, fQuantsOf(b))
		return cost
	case qgm.KindGroupBy:
		return e.Card(b.Quantifiers[0].Ranges) * costGroup
	case qgm.KindUnion:
		sum := 0.0
		for _, q := range b.Quantifiers {
			sum += e.Card(q.Ranges)
		}
		return sum
	case qgm.KindIntersect, qgm.KindExcept:
		return e.Card(b.Quantifiers[0].Ranges) + e.Card(b.Quantifiers[1].Ranges)
	default:
		if len(b.Quantifiers) > 0 {
			return e.Card(b.Quantifiers[0].Ranges)
		}
		return 1
	}
}

// fQuantsOf returns the box's ForEach quantifiers in current join order.
func fQuantsOf(b *qgm.Box) []*qgm.Quantifier {
	var out []*qgm.Quantifier
	for _, q := range b.OrderedQuantifiers() {
		if q.Type == qgm.ForEach {
			out = append(out, q)
		}
	}
	return out
}

// pipelineCost estimates the cost of evaluating the box's join pipeline in
// the given ForEach order, mirroring the executor's access paths (hash
// probe when an equality key binds, nested loop otherwise). It returns the
// cost and the final ForEach cardinality.
func (e *Estimator) pipelineCost(b *qgm.Box, order []*qgm.Quantifier) (float64, float64) {
	bound := map[*qgm.Quantifier]bool{}
	applied := map[int]bool{}
	cost := 0.0
	card := 1.0
	for i, q := range order {
		childCard := e.Card(q.Ranges)
		hashable := false
		sel := 1.0
		for pi, p := range b.Preds {
			if applied[pi] {
				continue
			}
			if !predReady(p, q, bound, b) {
				continue
			}
			applied[pi] = true
			sel *= e.Selectivity(b, p)
			if isEquiKey(p, q, bound) {
				hashable = true
			}
		}
		switch {
		case i == 0:
			cost += childCard
		case hashable:
			cost += card*costProbe + childCard // probe + build
		default:
			cost += card * childCard * costScanRow
		}
		card *= childCard * sel
		if card < 1 {
			card = 1
		}
		bound[q] = true
	}
	// Residual predicates (subquery-related) and E/A/S quantifier checks.
	for _, q := range b.Quantifiers {
		if q.Type == qgm.ForEach {
			continue
		}
		subCard := e.Card(q.Ranges)
		if boxReferencesLocal(q.Ranges, b) {
			// Correlated subquery: evaluated per row (memoized by distinct
			// binding at run time; charge a discounted per-row cost).
			cost += card * math.Sqrt(subCard+1)
		} else {
			cost += card * costProbe
		}
		if q.Type != qgm.Scalar {
			card *= existsSel
		}
	}
	cost += card * costOutRow
	return cost, card
}

// predReady reports whether predicate p becomes applicable when q joins the
// bound set: p references q, and all other references are bound or outer.
func predReady(p qgm.Expr, q *qgm.Quantifier, bound map[*qgm.Quantifier]bool, b *qgm.Box) bool {
	local := map[*qgm.Quantifier]bool{}
	for _, bq := range b.Quantifiers {
		local[bq] = true
	}
	refsQ := false
	ok := true
	qgm.VisitRefs(p, func(c *qgm.ColRef) {
		switch {
		case c.Q == q:
			refsQ = true
		case bound[c.Q]:
		case !local[c.Q]:
			// outer correlation: bound at runtime
		default:
			ok = false
		}
	})
	return refsQ && ok
}

// isEquiKey reports whether p is an equality usable as a hash/index key for
// q against the bound set.
func isEquiKey(p qgm.Expr, q *qgm.Quantifier, bound map[*qgm.Quantifier]bool) bool {
	cmp, ok := p.(*qgm.Cmp)
	if !ok || cmp.Op != datum.EQ {
		return false
	}
	side := func(e qgm.Expr) (mine, others, any bool) {
		mine, others, any = true, true, false
		qgm.VisitRefs(e, func(c *qgm.ColRef) {
			any = true
			if c.Q == q {
				others = false
			} else {
				mine = false
			}
		})
		return
	}
	lm, lo, la := side(cmp.L)
	rm, ro, ra := side(cmp.R)
	// one side references only q, the other only bound/outer quantifiers
	return (la && ra) && ((lm && ro) || (rm && lo))
}

// boxReferencesLocal reports whether sub's subtree references quantifiers
// of box b (correlation into b).
func boxReferencesLocal(sub *qgm.Box, b *qgm.Box) bool {
	local := map[*qgm.Quantifier]bool{}
	for _, q := range b.Quantifiers {
		local[q] = true
	}
	found := false
	seen := map[*qgm.Box]bool{}
	var walk func(box *qgm.Box)
	walk = func(box *qgm.Box) {
		if box == nil || seen[box] || found {
			return
		}
		seen[box] = true
		check := func(e qgm.Expr) {
			if e == nil {
				return
			}
			qgm.VisitRefs(e, func(c *qgm.ColRef) {
				if local[c.Q] {
					found = true
				}
			})
		}
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
		for _, q := range box.Quantifiers {
			walk(q.Ranges)
		}
		walk(box.MagicBox)
	}
	walk(sub)
	return found
}

// orderSelectBox picks the cheapest ForEach order for box b and stores it
// in b.JoinOrder (ForEach order followed by the remaining quantifiers in
// declaration order). It returns the number of orders considered.
func orderSelectBox(e *Estimator, b *qgm.Box) int {
	var fIdx []int
	for i, q := range b.Quantifiers {
		if q.Type == qgm.ForEach {
			fIdx = append(fIdx, i)
		}
	}
	n := len(fIdx)
	if n == 0 {
		b.JoinOrder = nil
		return 1
	}

	// Dependency constraint: a quantifier whose child box references a
	// sibling quantifier must follow it (correlated ForEach children).
	deps := make([]uint64, n)
	for i, qi := range fIdx {
		for j, qj := range fIdx {
			if i == j {
				continue
			}
			if boxRefsQuantifier(b.Quantifiers[qi].Ranges, b.Quantifiers[qj]) {
				deps[i] |= 1 << uint(j)
			}
		}
	}

	var order []int
	var considered int
	if n <= dpLimit {
		order, considered = dpOrder(e, b, fIdx, deps)
	} else {
		order, considered = greedyOrder(e, b, fIdx, deps)
	}

	join := make([]int, 0, len(b.Quantifiers))
	join = append(join, order...)
	for i, q := range b.Quantifiers {
		if q.Type != qgm.ForEach {
			join = append(join, i)
		}
	}
	b.JoinOrder = join
	return considered
}

func boxRefsQuantifier(sub *qgm.Box, q *qgm.Quantifier) bool {
	found := false
	seen := map[*qgm.Box]bool{}
	var walk func(box *qgm.Box)
	walk = func(box *qgm.Box) {
		if box == nil || seen[box] || found {
			return
		}
		seen[box] = true
		check := func(e qgm.Expr) {
			if e == nil {
				return
			}
			qgm.VisitRefs(e, func(c *qgm.ColRef) {
				if c.Q == q {
					found = true
				}
			})
		}
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
		for _, qq := range box.Quantifiers {
			walk(qq.Ranges)
		}
		walk(box.MagicBox)
	}
	walk(sub)
	return found
}

// dpOrder runs Selinger-style dynamic programming over quantifier subsets.
func dpOrder(e *Estimator, b *qgm.Box, fIdx []int, deps []uint64) ([]int, int) {
	n := len(fIdx)
	type state struct {
		cost  float64
		order []int
	}
	best := make(map[uint64]*state, 1<<uint(n))
	best[0] = &state{cost: 0}
	considered := 0
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		cur, ok := best[mask]
		if !ok {
			continue
		}
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if mask&bit != 0 {
				continue
			}
			if deps[j]&^mask != 0 {
				continue // dependencies not yet bound
			}
			nm := mask | bit
			order := append(append([]int(nil), cur.order...), fIdx[j])
			quants := make([]*qgm.Quantifier, len(order))
			for k, qi := range order {
				quants[k] = b.Quantifiers[qi]
			}
			cost, _ := e.pipelineCost(b, quants)
			considered++
			if s, ok := best[nm]; !ok || cost < s.cost {
				best[nm] = &state{cost: cost, order: order}
			}
		}
	}
	full := uint64(1)<<uint(n) - 1
	if s, ok := best[full]; ok {
		return s.order, considered
	}
	// Dependencies unsatisfiable (cyclic correlation): keep declaration
	// order.
	return append([]int(nil), fIdx...), considered
}

// greedyOrder picks, at each step, the quantifier minimizing the partial
// pipeline cost.
func greedyOrder(e *Estimator, b *qgm.Box, fIdx []int, deps []uint64) ([]int, int) {
	n := len(fIdx)
	var order []int
	used := uint64(0)
	considered := 0
	for len(order) < n {
		bestJ, bestCost := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if used&bit != 0 || deps[j]&^used != 0 {
				continue
			}
			trial := append(append([]int(nil), order...), fIdx[j])
			quants := make([]*qgm.Quantifier, len(trial))
			for k, qi := range trial {
				quants[k] = b.Quantifiers[qi]
			}
			cost, _ := e.pipelineCost(b, quants)
			considered++
			if cost < bestCost {
				bestCost, bestJ = cost, j
			}
		}
		if bestJ < 0 {
			// stuck on dependencies: append remaining in declaration order
			for j := 0; j < n; j++ {
				if used&(1<<uint(j)) == 0 {
					order = append(order, fIdx[j])
					used |= 1 << uint(j)
				}
			}
			break
		}
		order = append(order, fIdx[bestJ])
		used |= 1 << uint(bestJ)
	}
	return order, considered
}

// EligibleBefore returns the quantifiers that precede q in the box's join
// order — the quantifiers "eligible to pass information into q" (§4.3,
// Algorithm 4.1 step 2). EMST consumes this.
func EligibleBefore(b *qgm.Box, q *qgm.Quantifier) []*qgm.Quantifier {
	var out []*qgm.Quantifier
	for _, oq := range b.OrderedQuantifiers() {
		if oq == q {
			break
		}
		if oq.Type == qgm.ForEach {
			out = append(out, oq)
		}
	}
	return out
}
