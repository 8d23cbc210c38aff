package core

import (
	"strings"
	"testing"

	"starmagic/internal/qgm"
)

// TestCorrelatedEligibility exercises Algorithm 4.1 step 2's correlation
// clause: a quantifier of an ENCLOSING box passes information into a view
// inside a correlated subquery. The avgSal view referenced inside the
// EXISTS is restricted by a magic box carrying a correlated reference to
// the outer employee quantifier.
func TestCorrelatedEligibility(t *testing.T) {
	db := paperDB(t, 20, 8)
	query := `SELECT e.empname FROM employee e
		WHERE e.salary > 1500 AND EXISTS (
		  SELECT 1 FROM avgSal v
		  WHERE v.workdept = e.workdept AND v.avgsalary < e.salary)`

	ref, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Eval(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeQuery(t, db, query, Options{Snapshots: true})
	got, _, err := db.Eval(res.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("results differ:\ngot  %v\nwant %v\n%s", got, want, res.Graph.Dump())
	}

	// The phase-2 graph must contain a magic box whose output is a
	// correlated reference to the outer employee quantifier.
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if !strings.Contains(p2.Dump, "magic") {
		t.Fatalf("no magic box for the correlated subquery:\n%s", p2.Dump)
	}
	// Find a magic box referencing the outer quantifier "e".
	found := false
	g, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := runPhase(g, Options{Validate: true}, nil, Phase1Rules()...); err != nil {
		t.Fatal(err)
	}
	planOptimizeForTest(g)
	if err := runPhase(g, Options{Validate: true}, nil, Phase2Rules()...); err != nil {
		t.Fatal(err)
	}
	outer := g.Top.Quantifiers[0]
	for _, b := range g.Reachable() {
		if b.Role != qgm.RoleMagic {
			continue
		}
		qgm.VisitBoxExprs(b, func(e qgm.Expr) {
			qgm.VisitRefs(e, func(c *qgm.ColRef) {
				if c.Q == outer {
					found = true
				}
			})
		})
	}
	if !found {
		t.Errorf("no magic box carries a correlated reference to the outer quantifier:\n%s", g.Dump())
	}
}

// TestCorrelatedMagicRestrictsSubqueryWork: with the correlated magic in
// place, the per-binding evaluation of the subquery's view only aggregates
// the bound department instead of all of them.
func TestCorrelatedMagicRestrictsSubqueryWork(t *testing.T) {
	db := paperDB(t, 40, 20)
	query := `SELECT e.empname FROM employee e
		WHERE e.empno = 10001 AND EXISTS (
		  SELECT 1 FROM avgSal v
		  WHERE v.workdept = e.workdept AND v.avgsalary > 0)`

	orig := optimizeQuery(t, db, query, Options{Strategy: Original})
	_, evOrig, err := db.Eval(orig.Graph)
	if err != nil {
		t.Fatal(err)
	}
	magic := optimizeQuery(t, db, query, Options{})
	rows, evMagic, err := db.Eval(magic.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, magic.Graph.Dump())
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if !magic.UsedEMST {
		t.Skipf("cost model declined magic here (before %.0f after %.0f)", magic.CostBefore, magic.CostAfter)
	}
	if evMagic.Counters.OutputRows*2 > evOrig.Counters.OutputRows {
		t.Errorf("correlated magic did not restrict: %d vs %d output rows\n%s",
			evMagic.Counters.OutputRows, evOrig.Counters.OutputRows, magic.Graph.Dump())
	}
}
