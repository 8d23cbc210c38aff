package core

import (
	"context"
	"fmt"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/obs"
	"starmagic/internal/opt"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
)

// Strategy selects which boxes of the Figure 2/3 pipeline run: the three
// columns of the paper's Table 1.
type Strategy int

const (
	// EMST runs the full three-phase pipeline; the cheaper of the pre- and
	// post-transformation plans executes (§3.2). This is the default.
	EMST Strategy = iota
	// Original runs only phase-1 rewrite: views materialize in full.
	Original
	// Correlated pushes join predicates into private view copies as
	// correlation and re-evaluates them per outer row without caching.
	Correlated
)

func (s Strategy) String() string {
	switch s {
	case EMST:
		return "emst"
	case Original:
		return "original"
	case Correlated:
		return "correlated"
	}
	return "?"
}

// Options configures the optimization pipeline.
type Options struct {
	// Strategy selects the pipeline branch after the first plan
	// optimization (default EMST).
	Strategy Strategy
	// Snapshots records a dump of the graph after each rewrite phase (qgmviz,
	// EXPLAIN and the Figure 1/4 tests read them).
	Snapshots bool
	// Validate runs Graph.Check after every rule application.
	Validate bool
	// Trace receives one line per rule application when non-nil.
	Trace func(rule string, box *qgm.Box)
	// Ctx, when non-nil, is polled at stage boundaries so a cancelled or
	// timed-out query stops optimizing early.
	Ctx context.Context
	// Tracer, when non-nil, receives one span per pipeline stage (the
	// boxes of Figures 2 and 3): phase1, plan-opt1, then phase2, phase3
	// (EMST) or correlate (Correlated), plan-opt2, lower.
	Tracer obs.Tracer

	// NoHist makes the estimators of both plan-optimization passes and of
	// lowering ignore histograms (flat-default selectivities). Each pass
	// gets a fresh estimator: memoized cardinalities must not survive graph
	// rewrites.
	NoHist bool
	// ForceEMST executes the post-EMST plan even when the cost comparison
	// favors the pre-EMST one. A/B benchmarks, the ablation study and the
	// skewed-plan oracle use it to measure the runtime of the strategy the
	// optimizer rejected. Other strategies ignore it.
	ForceEMST bool
	// Params is one execution's binding of the query's `?` placeholders.
	// When set, the estimators of both plan optimizations and of lowering
	// read bound parameters as their values, so the plan is made for that
	// binding; it stays parameterized and correct for any other.
	Params datum.Row

	// Ablations disable individual design choices for the ablation study
	// (cmd/table1 -ablation); all false in normal operation.
	Ablations Ablations
}

// Ablations switches off individual EMST design decisions so their
// contribution can be measured.
type Ablations struct {
	// NoSupplementary: magic boxes re-join the eligible prefix instead of
	// sharing it through a supplementary-magic-box.
	NoSupplementary bool
	// NoDistinctPullup: magic tables keep their enforced DISTINCT, which
	// also blocks the phase-3 merges that depend on the inference.
	NoDistinctPullup bool
	// NoPhase3: deliver the raw phase-2 magic graph without simplification
	// (how deductive-database implementations left it, §1).
	NoPhase3 bool
	// DeclarationOrderSIPS: ignore the plan optimizer's join orders and
	// adorn in declaration order (what systems without cost-based sips do,
	// §2: "deductive database systems don't do any cost-based optimization
	// to determine the join orders needed for magic").
	DeclarationOrderSIPS bool
}

// Phase is one pipeline stage: its wall-clock and, when snapshots are
// recorded, the QGM graph as it stood after the stage. A snapshot taken
// where no stage ran (the initial graph, the correlated graph) is a phase of
// its own with no duration.
type Phase struct {
	Name     string
	Duration time.Duration
	// HasSnapshot marks phases whose Boxes/Dump/DOT fields are populated.
	HasSnapshot bool
	Boxes       qgm.Stats
	Dump        string
	// DOT is the Graphviz rendering of the same graph (cmd/qgmviz -dot).
	DOT string
}

// Result reports what the pipeline did.
type Result struct {
	// Graph is the graph to execute (the transformed graph, or the
	// pre-EMST graph when the cost comparison favored it).
	Graph *qgm.Graph
	// Physical is Graph lowered into the physical operator tree the
	// streaming executor runs (the "lower" stage).
	Physical *plan.Plan
	// UsedEMST reports whether the executed plan is the EMST-transformed
	// one.
	UsedEMST bool
	// CostBefore/CostAfter are the optimizer's estimates for the pre- and
	// post-EMST plans (§3.2 step 5). Strategies without the comparison
	// report the cost of their only plan as both.
	CostBefore, CostAfter float64
	// PlansConsidered sums join orders examined across the plan-
	// optimization invocations.
	PlansConsidered int
	// Phases records each pipeline stage in execution order (phase1,
	// plan-opt1, the strategy's stages, lower), with the graph snapshots
	// when requested.
	Phases []Phase
	// RuleStats tallies rewrite-rule attempts and fires across all rewrite
	// phases of this optimization.
	RuleStats []rewrite.RuleStat
}

// Optimize runs the paper's optimization architecture (Figures 2 and 3):
//
//	phase-1 query rewrite (no EMST; rules that need no join orders)
//	plan optimization            → join orders + cost of the no-EMST plan
//	phase-2 query rewrite        → the EMST rule, using those join orders
//	phase-3 query rewrite        → simplify the magic graph (EMST disabled)
//	plan optimization            → cost of the EMST plan
//	cost comparison              → execute the cheaper plan
//	lowering                     → the physical operator tree
//
// The back edge from plan optimization to query rewrite in Figure 2 is the
// call sequence here. The guarantee (§3.2): usage of the EMST rule cannot
// degrade the query plan produced without it. Table 1's other strategies
// are branches of the same pipeline: Original lowers the phase-1 plan, and
// Correlated replaces phases 2 and 3 with view correlation.
func Optimize(g *qgm.Graph, o Options) (*Result, error) {
	p := &pipeline{o: o, g: g, res: &Result{}, stats: &rewrite.Stats{}}
	res := p.res
	defer func() { res.RuleStats = p.stats.Snapshot() }()
	p.snap("initial")

	// Phase 1: rewrite rules that do not depend on join orders.
	if err := p.stage("phase1", func() error {
		return runPhase(p.g, p.o, p.stats, Phase1Rules()...)
	}); err != nil {
		return res, fmt.Errorf("phase 1: %w", err)
	}
	p.snap("phase1")

	// Plan optimization #1: join orders for EMST, and the no-EMST cost.
	r1, err := p.planOpt("plan-opt1")
	if err != nil {
		return res, err
	}
	res.Graph = g
	res.CostBefore, res.CostAfter = r1.Cost, r1.Cost
	res.PlansConsidered = r1.PlansConsidered

	switch o.Strategy {
	case Original:
	case Correlated:
		err = p.correlate()
	case EMST:
		err = p.emst(r1)
	default:
		err = fmt.Errorf("unknown strategy %v", o.Strategy)
	}
	if err != nil {
		return res, err
	}

	// Lowering: the winning graph plus its chosen join orders become the
	// physical operator tree the streaming executor runs.
	err = p.stage("lower", func() error {
		res.Physical = plan.LowerWith(res.Graph, p.estimator())
		return nil
	})
	return res, err
}

// pipeline is one Optimize call's state: the graph being rewritten and the
// result its stages record into.
type pipeline struct {
	o     Options
	g     *qgm.Graph
	res   *Result
	stats *rewrite.Stats
}

// stage wraps one pipeline box of Figure 2/3 in a span and a phase entry,
// checking for cancellation before starting the work.
func (p *pipeline) stage(name string, f func() error) error {
	if p.o.Ctx != nil {
		if err := p.o.Ctx.Err(); err != nil {
			return err
		}
	}
	sp := obs.Start(p.o.Tracer, name)
	start := time.Now()
	err := f()
	sp.End()
	p.res.Phases = append(p.res.Phases, Phase{Name: name, Duration: time.Since(start)})
	return err
}

// snap records the graph when snapshots are on: on the phase just run when
// it has this name, else as a phase of its own.
func (p *pipeline) snap(name string) {
	if !p.o.Snapshots {
		return
	}
	ph := Phase{Name: name, HasSnapshot: true, Boxes: p.g.Stats(), Dump: p.g.Dump(), DOT: p.g.DumpDOT(name)}
	if n := len(p.res.Phases); n > 0 && p.res.Phases[n-1].Name == name {
		ph.Duration = p.res.Phases[n-1].Duration
		p.res.Phases[n-1] = ph
		return
	}
	p.res.Phases = append(p.res.Phases, ph)
}

// planOpt runs one plan optimization over the current graph with a fresh
// estimator.
func (p *pipeline) planOpt(name string) (opt.Result, error) {
	var r opt.Result
	err := p.stage(name, func() error {
		r = opt.OptimizeEst(p.g, p.estimator())
		return nil
	})
	return r, err
}

// estimator returns a fresh estimator for one pass: memoized cardinalities
// must not survive graph rewrites.
func (p *pipeline) estimator() *opt.Estimator {
	e := opt.NewEstimatorWith(nil, p.o.NoHist)
	e.Params = p.o.Params
	return e
}

// correlate is the Correlated strategy's branch: join predicates move into
// private view copies, and the correlated graph is costed once more. Its
// only plan is the one executed.
func (p *pipeline) correlate() error {
	if err := p.stage("correlate", func() error {
		rewrite.CorrelateViews(p.g)
		return nil
	}); err != nil {
		return err
	}
	r2, err := p.planOpt("plan-opt2")
	p.snap("correlated")
	if err != nil {
		return err
	}
	p.res.CostBefore, p.res.CostAfter = r2.Cost, r2.Cost
	p.res.PlansConsidered += r2.PlansConsidered
	return nil
}

// emst is the EMST strategy's branch: phase 2 applies the transformation
// along plan-opt1's join orders, phase 3 simplifies the magic graph, and
// the §3.2 cost comparison against r1 picks the graph to execute.
func (p *pipeline) emst(r1 opt.Result) error {
	o, g, res := p.o, p.g, p.res
	// Keep the pre-EMST plan for the cost comparison.
	fallback := g.CloneGraph()

	if o.Ablations.DeclarationOrderSIPS {
		for _, b := range g.Reachable() {
			b.JoinOrder = nil
		}
	}

	// Phase 2: EMST plus the join-order-independent rules (the paper keeps
	// graph-simplifying merges for phase 3).
	if err := p.stage("phase2", func() error {
		emst := NewEMSTRule()
		emst.NoSupplementary = o.Ablations.NoSupplementary
		phase2 := []rewrite.Rule{emst, rewrite.LocalPushdownRule{}}
		if !o.Ablations.NoDistinctPullup {
			phase2 = append(phase2, rewrite.DistinctPullupRule{})
		}
		return runPhase(g, o, p.stats, phase2...)
	}); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	clearMagicLinks(g)
	p.snap("phase2")

	// Phase 3: simplify the magic graph; EMST disabled.
	if err := p.stage("phase3", func() error {
		if o.Ablations.NoPhase3 {
			return nil
		}
		phase3 := Phase3Rules()
		if o.Ablations.NoDistinctPullup {
			phase3 = withoutRule(phase3, rewrite.DistinctPullupRule{}.Name())
		}
		return runPhase(g, o, p.stats, phase3...)
	}); err != nil {
		return fmt.Errorf("phase 3: %w", err)
	}
	p.snap("phase3")

	// Plan optimization #2 and the cost comparison.
	r2, err := p.planOpt("plan-opt2")
	if err != nil {
		return err
	}
	res.CostAfter = r2.Cost
	res.PlansConsidered += r2.PlansConsidered
	if o.ForceEMST || r2.Cost <= r1.Cost {
		res.UsedEMST = true
	} else {
		res.Graph = fallback
	}
	return nil
}

// Phase1Rules are the join-order-independent rewrite rules (§3.3): local
// predicate pushdown (the paper's "local magic" rule), duplicate-
// elimination pull-up, redundant join elimination, the merge rule, plus
// projection pruning and trivial-select cleanup.
func Phase1Rules() []rewrite.Rule {
	return []rewrite.Rule{
		rewrite.MergeRule{},
		rewrite.LocalPushdownRule{},
		rewrite.ProjectionPruneRule{},
		rewrite.DistinctPullupRule{},
		rewrite.RedundantJoinRule{},
		rewrite.TrivialSelectRule{},
	}
}

// Phase2Rules activate EMST alongside the rules it cooperates with; the
// merge rule stays disabled so the magic structure remains visible until
// phase 3 (Figure 3).
func Phase2Rules() []rewrite.Rule {
	return []rewrite.Rule{
		NewEMSTRule(),
		rewrite.LocalPushdownRule{},
		rewrite.DistinctPullupRule{},
	}
}

// Phase3Rules simplify the transformed graph with EMST disabled.
func Phase3Rules() []rewrite.Rule {
	return Phase1Rules()
}

func withoutRule(rules []rewrite.Rule, name string) []rewrite.Rule {
	var out []rewrite.Rule
	for _, r := range rules {
		if r.Name() != name {
			out = append(out, r)
		}
	}
	return out
}

func runPhase(g *qgm.Graph, o Options, stats *rewrite.Stats, rules ...rewrite.Rule) error {
	engine := rewrite.NewEngine(rules...)
	ctx := &rewrite.Context{G: g, Validate: o.Validate, Trace: o.Trace, Stats: stats}
	return engine.Run(ctx)
}

// clearMagicLinks drops the MagicBox/MagicCols bookkeeping once phase 2 is
// complete: the restrictions have been materialized as magic quantifiers
// and predicates; the links would otherwise pin boxes and block phase-3
// merges.
func clearMagicLinks(g *qgm.Graph) {
	for _, b := range g.Reachable() {
		b.MagicBox = nil
		b.MagicCols = nil
	}
	g.GC()
}
