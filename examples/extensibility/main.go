// Extensibility: teaching EMST about a new operation, the paper's §5.
//
// A Starburst "database customizer" can add a new box kind; for it to
// participate in the magic-sets transformation they state one property —
// whether the box accepts a magic quantifier with join semantics (AMQ) or
// can only pass restrictions into its inputs (NMQ) — plus the usual
// predicate-pushdown behavior and an evaluator. The paper's example of a
// prospective extension is the outer join, so that is what we add here:
//
//   - a LEFT OUTER JOIN box kind (NMQ: inserting a magic quantifier with
//     plain join semantics would cancel the NULL-extension, but a
//     restriction on an outer-side column may pass into the outer input);
//   - its executor, which receives the rows of its two inputs;
//   - its NMQ mapping for EMST.
//
// The example then builds a query over the new box by hand (the SQL front
// end predates the extension, exactly like a customizer's situation),
// runs the full three-phase pipeline, and shows magic restricting the
// outer side of the outer join.
//
// Run with: go run ./examples/extensibility
package main

import (
	"fmt"
	"log"

	"starmagic/internal/catalog"
	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/storage"
)

// KindLeftOuterJoin is our extension box kind: two ForEach quantifiers
// (outer side first), Preds holding the ON condition, Output = outer
// columns followed by inner columns (NULL-extended on no match).
const KindLeftOuterJoin = qgm.KindExtensionStart + 1

func registerOuterJoin() {
	// 1. The evaluator.
	exec.RegisterKind(KindLeftOuterJoin, evalLeftOuterJoin)

	// 2. The EMST property (§4.2): NMQ, with restrictions on outer-side
	// output ordinals passed into the outer input. A predicate on the
	// inner (NULL-extended) side must NOT pass down: it would have to
	// filter NULL-extended rows, which the input never produces.
	core.RegisterBoxKind(KindLeftOuterJoin, false, func(b *qgm.Box, boxOrd int) []core.QuantBinding {
		outerQ := b.Quantifiers[0]
		if boxOrd < len(outerQ.Ranges.Output) {
			return []core.QuantBinding{{Quant: outerQ, ChildOrd: boxOrd}}
		}
		return nil
	})
}

// evalLeftOuterJoin is a straightforward nested-loop left outer join over
// the rows of its outer and inner inputs.
func evalLeftOuterJoin(b *qgm.Box, inputs [][]datum.Row, env exec.Env) ([]datum.Row, error) {
	outerQ, innerQ := b.Quantifiers[0], b.Quantifiers[1]
	outerRows, innerRows := inputs[0], inputs[1]
	nInner := len(innerQ.Ranges.Output)
	var out []datum.Row
	cur := exec.Env{}
	for k, v := range env {
		cur[k] = v
	}
	for _, orow := range outerRows {
		cur[outerQ] = orow
		matched := false
		for _, irow := range innerRows {
			cur[innerQ] = irow
			ok := true
			for _, p := range b.Preds {
				tv, err := exec.EvalPred(p, cur)
				if err != nil {
					return nil, err
				}
				if tv != datum.True {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				out = append(out, append(orow.Clone(), irow...))
			}
		}
		delete(cur, innerQ)
		if !matched {
			row := orow.Clone()
			for i := 0; i < nInner; i++ {
				row = append(row, datum.NullOf(innerQ.Ranges.Output[i].Type))
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func main() {
	registerOuterJoin()

	// Schema: employees (the outer side, via a view so there is something
	// for magic to restrict) LEFT OUTER JOIN parking spots.
	cat := catalog.New()
	emp := &catalog.Table{
		Name: "employee",
		Columns: []catalog.Column{
			{Name: "empno", Type: datum.TInt},
			{Name: "workdept", Type: datum.TInt},
			{Name: "salary", Type: datum.TFloat},
		},
		Keys:    [][]int{{0}},
		Indexes: [][]int{{0}, {1}},
	}
	spot := &catalog.Table{
		Name: "parking",
		Columns: []catalog.Column{
			{Name: "empno", Type: datum.TInt},
			{Name: "lot", Type: datum.TString},
		},
		Keys: [][]int{{0}},
	}
	if err := cat.AddTable(emp); err != nil {
		log.Fatal(err)
	}
	if err := cat.AddTable(spot); err != nil {
		log.Fatal(err)
	}
	store := storage.NewStore()
	er := store.Create(emp)
	pr := store.Create(spot)
	for d := 1; d <= 40; d++ {
		for i := 1; i <= 25; i++ {
			empno := int64(d*100 + i)
			must(er.Insert(datum.Row{
				datum.Int(empno), datum.Int(int64(d)), datum.Float(float64(1000 + empno%700)),
			}))
			if empno%3 == 0 {
				must(pr.Insert(datum.Row{datum.Int(empno), datum.String(fmt.Sprintf("lot%d", empno%5))}))
			}
		}
	}
	catalog.AnalyzeTable(emp, er.Rows())
	catalog.AnalyzeTable(spot, pr.Rows())

	// Build the QGM by hand (the SQL grammar has no OUTER JOIN — the point
	// of the exercise): top select filters workdept = 7 over the outer-join
	// box of employee x parking.
	g := qgm.NewGraph()
	empBox := baseBox(g, emp)
	spotBox := baseBox(g, spot)

	oj := g.NewBox(KindLeftOuterJoin, "EMP_LOJ_PARKING")
	eq := g.AddQuantifier(oj, qgm.ForEach, "e", empBox)
	pq := g.AddQuantifier(oj, qgm.ForEach, "p", spotBox)
	oj.Preds = []qgm.Expr{&qgm.Cmp{Op: datum.EQ, L: eq.Col(0), R: pq.Col(0)}}
	for i, oc := range empBox.Output {
		oj.Output = append(oj.Output, qgm.OutputCol{Name: oc.Name, Expr: eq.Col(i), Type: oc.Type})
	}
	for i, oc := range spotBox.Output {
		oj.Output = append(oj.Output, qgm.OutputCol{Name: "p_" + oc.Name, Expr: pq.Col(i), Type: oc.Type})
	}

	// Wrap the employee side in a filtering view (employees with salary > 1005) so
	// EMST has a box to adorn and restrict; an identity wrapper would be
	// removed by the trivial-select cleanup before EMST ever saw it.
	view := g.NewBox(qgm.KindSelect, "WELLPAID")
	vq := g.AddQuantifier(view, qgm.ForEach, "e", empBox)
	view.Preds = []qgm.Expr{&qgm.Cmp{Op: datum.GT, L: vq.Col(2), R: &qgm.Const{Val: datum.Float(1005)}}}
	for i, oc := range empBox.Output {
		view.Output = append(view.Output, qgm.OutputCol{Name: oc.Name, Expr: vq.Col(i), Type: oc.Type})
	}
	eq.Ranges = view

	top := g.NewBox(qgm.KindSelect, "QUERY")
	dq := g.AddQuantifier(top, qgm.ForEach, "dept7", mkDeptFilterBox(g, empBox))
	jq := g.AddQuantifier(top, qgm.ForEach, "j", oj)
	top.Preds = []qgm.Expr{&qgm.Cmp{Op: datum.EQ, L: dq.Col(0), R: jq.Col(1)}}
	top.Output = []qgm.OutputCol{
		{Name: "empno", Expr: jq.Col(0), Type: datum.TInt},
		{Name: "lot", Expr: jq.Col(4), Type: datum.TString},
	}
	g.Top = top
	g.Limit = -1
	if err := g.Check(); err != nil {
		log.Fatal(err)
	}

	// Reference result before optimization.
	refRows, _, err := exec.New(store).EvalPlan(plan.Lower(g.CloneGraph()))
	if err != nil {
		log.Fatal(err)
	}

	res, err := core.Optimize(g, core.Options{Snapshots: true, Validate: true})
	if err != nil {
		log.Fatal(err)
	}
	rows, _, err := exec.New(store).EvalPlan(res.Physical)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rows: %d (reference %d)\n", len(rows), len(refRows))
	fmt.Printf("EMST plan used: %v, cost %.0f -> %.0f\n", res.UsedEMST, res.CostBefore, res.CostAfter)

	for _, s := range res.Phases {
		if s.Name == "phase2" {
			fmt.Println("\n--- phase 2 graph (magic descended into the outer-join's outer side) ---")
			fmt.Print(s.Dump)
		}
	}
	if len(rows) != len(refRows) {
		log.Fatalf("MISMATCH: optimized plan returned %d rows, reference %d", len(rows), len(refRows))
	}
	fmt.Println("\nresults match the unoptimized reference — the extension participates in EMST")
}

// mkDeptFilterBox builds SELECT DISTINCT workdept FROM employee WHERE
// workdept = 7 — a tiny driver table supplying the binding.
func mkDeptFilterBox(g *qgm.Graph, empBox *qgm.Box) *qgm.Box {
	b := g.NewBox(qgm.KindSelect, "DEPT7")
	q := g.AddQuantifier(b, qgm.ForEach, "e", empBox)
	b.Preds = []qgm.Expr{&qgm.Cmp{Op: datum.EQ, L: q.Col(1), R: &qgm.Const{Val: datum.Int(7)}}}
	b.Output = []qgm.OutputCol{{Name: "workdept", Expr: q.Col(1), Type: datum.TInt}}
	b.Distinct = qgm.DistinctEnforce
	return b
}

func baseBox(g *qgm.Graph, t *catalog.Table) *qgm.Box {
	b := g.NewBox(qgm.KindBaseTable, t.Name)
	b.Table = t
	for _, c := range t.Columns {
		b.Output = append(b.Output, qgm.OutputCol{Name: c.Name, Type: c.Type})
	}
	return b
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
