package engine

import (
	"fmt"
	"strings"

	"starmagic/internal/core"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
)

// ExplainInfo is the structured account of one query's trip through the
// paper's Figure 2/3 pipeline: a timed entry per phase (parse, bind, the
// three rewrite phases, both plan-optimization passes, and — after
// execution — the run itself), per-rule attempt/fire counts, the §3.2 cost
// comparison and its winner, and the plan optimizer's join orders. QGM
// snapshots (the Figure 4 panels) are attached to the rewrite phases when
// captured (ExplainContext always captures them). String renders the whole
// thing as text.
type ExplainInfo struct {
	Query    string
	Strategy Strategy
	// Phases in pipeline order: parse and bind, then core.Optimize's.
	// Entries with HasSnapshot carry the QGM graph as it stood after that
	// phase.
	Phases []core.Phase
	// Rules tallies rewrite-rule activity across all rewrite phases.
	Rules []rewrite.RuleStat
	// CostBefore/CostAfter are the §3.2 plan-cost estimates around EMST,
	// and UsedEMST is the comparison's winner. For strategies that skip the
	// comparison both costs describe the only plan produced.
	CostBefore, CostAfter float64
	UsedEMST              bool
	// PlansConsidered sums join orders examined across plan optimizations.
	PlansConsidered int
	// JoinOrders lists the chosen quantifier order per multi-quantifier
	// select box of the executed plan.
	JoinOrders []JoinOrder
	// Physical renders the lowered physical operator tree (cardinality
	// estimates only — per-operator execution counters appear on
	// Result.Plan.Physical() after a run); Operators is the structured form.
	Physical  string
	Operators []plan.OpReport
	// PlanDOT is the Graphviz rendering of the executed plan (captured with
	// the snapshots).
	PlanDOT string
	// Params is the number of `?` placeholders the query declares. Their
	// values are unknown at prepare time, so the plan explained here uses
	// the optimizer's default selectivities for predicates over them;
	// executions run a plan made for their binding's selectivity class
	// when BindingPlans is set.
	Params int
	// BindingPlans reports that some estimate of the plan reads a parameter,
	// so executions re-plan per binding selectivity class (see bound.go).
	BindingPlans bool
	// CacheStatus reports how the plan cache served this prepare: "hit",
	// "miss" (optimized cold and stored), or "bypass" (cache disabled or a
	// tracer was attached). A cached plan is served unchanged until its
	// catalog epoch, CacheEpoch, goes stale.
	CacheStatus string
	CacheEpoch  uint64
}

// JoinOrder is the plan optimizer's chosen quantifier order in one box.
type JoinOrder struct {
	Box   string
	Order []string
}

// Phase returns the first phase with the given name, if any.
func (e *ExplainInfo) Phase(name string) (core.Phase, bool) {
	for _, p := range e.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return core.Phase{}, false
}

// RuleFires returns the fire count of one rewrite rule (0 if it never ran).
func (e *ExplainInfo) RuleFires(rule string) int64 {
	for _, r := range e.Rules {
		if r.Rule == rule {
			return r.Fires
		}
	}
	return 0
}

// String renders the explain output: the QGM graph after each captured
// phase (the paper's Figure 4 panels), per-phase timings, rule-fire counts,
// the cost comparison, and the executed plan's join orders.
func (e *ExplainInfo) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy: %s\n", e.Strategy)
	if e.CacheStatus != "" {
		fmt.Fprintf(&sb, "cache: %s (epoch %d)\n", e.CacheStatus, e.CacheEpoch)
	}
	switch {
	case e.BindingPlans:
		fmt.Fprintf(&sb, "parameters: %d (planned with default selectivities; executions re-plan once per binding selectivity class, up to %d plans)\n", e.Params, MaxBindingPlans)
	case e.Params > 0:
		fmt.Fprintf(&sb, "parameters: %d (planned with default selectivities)\n", e.Params)
	}
	for _, p := range e.Phases {
		if !p.HasSnapshot {
			continue
		}
		fmt.Fprintf(&sb, "-- %s -- (%s)\n%s\n", p.Name, p.Boxes, p.Dump)
	}
	if len(e.Phases) > 0 {
		sb.WriteString("phases:\n")
		for _, p := range e.Phases {
			if p.HasSnapshot && p.Duration == 0 {
				continue // a snapshot where no stage ran, not work
			}
			fmt.Fprintf(&sb, "  %-10s %v\n", p.Name, p.Duration)
		}
	}
	if len(e.Rules) > 0 {
		sb.WriteString("rules:\n")
		for _, r := range e.Rules {
			fmt.Fprintf(&sb, "  %-22s fires=%-4d attempts=%d\n", r.Rule, r.Fires, r.Attempts)
		}
	}
	if e.Strategy != Correlated {
		fmt.Fprintf(&sb, "cost before EMST: %.1f\ncost after EMST:  %.1f\nexecuting: ", e.CostBefore, e.CostAfter)
		if e.UsedEMST {
			sb.WriteString("EMST plan\n")
		} else {
			sb.WriteString("pre-EMST plan\n")
		}
	}
	if len(e.JoinOrders) > 0 {
		sb.WriteString("join orders:\n")
		for _, jo := range e.JoinOrders {
			fmt.Fprintf(&sb, "  %s: %s\n", jo.Box, strings.Join(jo.Order, " "))
		}
	}
	if e.Physical != "" {
		sb.WriteString("physical plan:\n")
		for _, line := range strings.Split(strings.TrimRight(e.Physical, "\n"), "\n") {
			sb.WriteString("  " + line + "\n")
		}
	}
	return sb.String()
}

// joinOrders extracts the plan optimizer's chosen quantifier order per
// multi-quantifier select box.
func joinOrders(g *qgm.Graph) []JoinOrder {
	var out []JoinOrder
	for _, b := range g.Reachable() {
		if b.Kind != qgm.KindSelect || len(b.Quantifiers) < 2 {
			continue
		}
		jo := JoinOrder{Box: b.Name}
		for _, q := range b.OrderedQuantifiers() {
			jo.Order = append(jo.Order, q.Name)
		}
		out = append(out, jo)
	}
	return out
}
