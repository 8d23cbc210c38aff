package bench

import (
	"fmt"
	"slices"
	"time"

	"starmagic/internal/core"
	"starmagic/internal/engine"
	"starmagic/internal/exec"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
)

// Ablation study: measure the contribution of the individual design
// decisions the paper argues for by turning them off one at a time on the
// experiments where they matter:
//
//   - supplementary-magic-boxes (step 4a) factor the join-order prefix so
//     the magic table does not recompute it;
//   - distinct pull-up lets phase 3 merge the magic boxes away;
//   - phase-3 simplification itself ("deductive database implementations
//     of magic-sets do not optimize the graph any further", §1);
//   - cost-based join orders for adornment (§2/§3.2: deductive systems
//     "don't do any cost-based optimization to determine the join orders
//     needed for magic-sets").
type AblationVariant struct {
	Name      string
	Ablations core.Ablations
}

// AblationVariants lists the measured configurations.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "full EMST"},
		{Name: "no supplementary", Ablations: core.Ablations{NoSupplementary: true}},
		{Name: "no distinct pull-up", Ablations: core.Ablations{NoDistinctPullup: true}},
		{Name: "no phase-3 cleanup", Ablations: core.Ablations{NoPhase3: true}},
		{Name: "declaration-order sips", Ablations: core.Ablations{DeclarationOrderSIPS: true}},
	}
}

// AblationRow reports one (experiment, variant) measurement. The variant
// plan is always executed (no cost-comparison fallback) so the ablated
// transformation itself is what is measured.
type AblationRow struct {
	Experiment string
	Variant    string
	Elapsed    time.Duration
	Boxes      int
	Joins      int
	Counters   exec.Counters
}

// ablationExperiments adds "S" to the Table 1 set: the query-D shape with
// the VIEW declared first in FROM. With cost-based sips the optimizer still
// orders department before the view and magic applies; with declaration-
// order sips nothing precedes the view, no bindings exist, and the
// transformation degenerates to the original plan — the paper's §2 argument
// for cost-based join orders ("the choice of the join-order is very
// important for an efficient transformation, and is one of the weak points
// of all implementations of magic in deductive databases").
func ablationExperiments() []Experiment {
	return append(Experiments(), Experiment{
		ID:   "S",
		Name: "bad declaration order (sips sensitivity)",
		Query: `SELECT d.deptname, v.avgamount
		        FROM employee e, deptAvgSales v, department d
		        WHERE e.workdept = v.deptno AND v.deptno = d.deptno
		          AND d.deptname = 'Planning' AND e.jobcode = 3`,
		Regime: "the selective department filter is declared AFTER the view: " +
			"declaration-order sips can only feed the magic table from the " +
			"unselective employee side (every department), while cost-based " +
			"sips order department first and magic restricts to one department",
	})
}

// minAblationReps is the fewest runs a variant's time is the median of:
// the plans run in well under a millisecond, where the fastest of a few
// runs cannot resolve their differences.
const minAblationReps = 11

// RunAblations measures every variant on the given experiments: each
// variant's time is the median of max(reps, minAblationReps) runs, every
// run of an ablated variant preceded by a run of full EMST, so drift in the
// machine's speed reaches both alike.
func RunAblations(db *engine.Database, experimentIDs []string, reps int) ([]AblationRow, error) {
	wanted := map[string]bool{}
	for _, id := range experimentIDs {
		wanted[id] = true
	}
	reps = max(reps, minAblationReps)
	var out []AblationRow
	for _, e := range ablationExperiments() {
		if !wanted[e.ID] {
			continue
		}
		rows, err := runAblations(db, e, reps)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// runAblations optimizes e under every variant, then runs the plans round
// by round. AblationVariants lists full EMST first.
func runAblations(db *engine.Database, e Experiment, reps int) ([]AblationRow, error) {
	variants := AblationVariants()
	rows := make([]AblationRow, len(variants))
	plans := make([]*core.Result, len(variants))
	times := make([][]time.Duration, len(variants))
	for i, v := range variants {
		g, err := buildFor(db, e.Query)
		if err == nil {
			plans[i], err = optimizeWith(g, v)
		}
		if err == nil {
			err = plans[i].Graph.Check()
		}
		if err != nil {
			return nil, fmt.Errorf("exp %s / %s: %w", e.ID, v.Name, err)
		}
		stats := plans[i].Graph.Stats()
		rows[i] = AblationRow{Experiment: e.ID, Variant: v.Name, Boxes: stats.Boxes, Joins: stats.Joins}
	}
	run := func(i int) error {
		ev := exec.New(db.Store())
		start := time.Now()
		if _, _, err := ev.EvalPlan(plans[i].Physical); err != nil {
			return fmt.Errorf("exp %s / %s: %w", e.ID, variants[i].Name, err)
		}
		times[i] = append(times[i], time.Since(start))
		rows[i].Counters = ev.Counters
		return nil
	}
	for range reps {
		for i := 1; i < len(variants); i++ {
			if err := run(0); err != nil {
				return nil, err
			}
			if err := run(i); err != nil {
				return nil, err
			}
		}
	}
	for i := range rows {
		slices.Sort(times[i])
		rows[i].Elapsed = times[i][len(times[i])/2]
	}
	return rows, nil
}

// FormatAblations renders the study, normalizing elapsed times to the full
// EMST variant of each experiment (= 100).
func FormatAblations(rows []AblationRow) string {
	base := map[string]float64{}
	for _, r := range rows {
		if r.Variant == "full EMST" {
			base[r.Experiment] = r.Elapsed.Seconds()
		}
	}
	s := fmt.Sprintf("%-6s %-24s %10s %7s %7s %12s %12s\n",
		"Query", "variant", "time", "boxes", "joins", "base-rows", "output-rows")
	for _, r := range rows {
		norm := 100.0
		if b := base[r.Experiment]; b > 0 {
			norm = 100 * r.Elapsed.Seconds() / b
		}
		s += fmt.Sprintf("Exp %-2s %-24s %10.2f %7d %7d %12d %12d\n",
			r.Experiment, r.Variant, norm, r.Boxes, r.Joins, r.Counters.BaseRows, r.Counters.OutputRows)
	}
	return s
}

func buildFor(db *engine.Database, query string) (*qgm.Graph, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return semant.NewBuilder(db.Catalog()).Build(q)
}

// optimizeWith runs the EMST pipeline under one variant's ablations. The
// cost comparison is skipped, so the ablated transformation itself is what
// executes and what is measured.
func optimizeWith(g *qgm.Graph, v AblationVariant) (*core.Result, error) {
	return core.Optimize(g, core.Options{Strategy: core.EMST, ForceEMST: true, Ablations: v.Ablations})
}

func newEval(db *engine.Database) *exec.Evaluator { return exec.New(db.Store()) }
