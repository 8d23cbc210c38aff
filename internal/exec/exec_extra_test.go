package exec

import (
	"strings"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
)

func TestUnknownBoxKindErrors(t *testing.T) {
	_, store := testDB(t)
	g := qgm.NewGraph()
	b := g.NewBox(qgm.BoxKind(99), "mystery")
	b.Output = []qgm.OutputCol{{Name: "x", Type: datum.TInt}}
	g.Top = b
	if _, err := New(store).EvalGraph(g); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Errorf("want no-handler error, got %v", err)
	}
}

func TestRegisterKindHandler(t *testing.T) {
	_, store := testDB(t)
	kind := qgm.KindExtensionStart + 7
	RegisterKind(kind, func(ev *Evaluator, b *qgm.Box, env Env) ([]datum.Row, error) {
		return []datum.Row{{datum.Int(42)}}, nil
	})
	g := qgm.NewGraph()
	b := g.NewBox(kind, "answer")
	b.Output = []qgm.OutputCol{{Name: "x", Type: datum.TInt}}
	g.Top = b
	rows, err := New(store).EvalGraph(g)
	if err != nil || len(rows) != 1 || rows[0][0].I != 42 {
		t.Errorf("extension handler: %v %v", rows, err)
	}
}

func TestResetCaches(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery("SELECT COUNT(*) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(store)
	r1, err := ev.EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Insert another row; without reset the memoized materialization hides
	// it, after reset it is visible.
	rel, _ := store.Relation("employee")
	if err := rel.Insert(datum.Row{datum.Int(999), datum.String("zed"), datum.Int(1), datum.Float(1)}); err != nil {
		t.Fatal(err)
	}
	r2, _ := ev.EvalGraph(g)
	if r2[0][0].I != r1[0][0].I {
		t.Fatal("memoization should have hidden the insert")
	}
	ev.ResetCaches()
	r3, err := ev.EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if r3[0][0].I != r1[0][0].I+1 {
		t.Errorf("after reset count = %v; want %v", r3[0][0].I, r1[0][0].I+1)
	}
}

func TestNAryUnion(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery("SELECT deptno FROM department")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Top.Quantifiers[0].Ranges
	u := g.NewBox(qgm.KindUnion, "U3")
	for i := 0; i < 3; i++ {
		g.AddQuantifier(u, qgm.ForEach, "b", base)
	}
	u.Distinct = qgm.DistinctPreserve
	for _, c := range base.Output {
		u.Output = append(u.Output, qgm.OutputCol{Name: c.Name, Type: c.Type})
	}
	g.Top = u
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	rows, err := New(store).EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 departments × 3 branches, ALL semantics
		t.Errorf("rows = %d; want 9", len(rows))
	}
	u.Distinct = qgm.DistinctEnforce
	rows, err = New(store).EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("distinct rows = %d; want 3", len(rows))
	}
}

// TestMagicWithNullBindings: a magic table never carries a match for NULL
// join values — consistent with SQL equality, which the original join
// predicate also applies. Rows with NULL join columns must appear in
// neither plan.
func TestMagicWithNullBindings(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery(
		"SELECT e.empname, v.avgsalary FROM employee e, avgMgrSal v WHERE e.workdept = v.workdept")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := New(store).EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].S == "grace" {
			t.Error("NULL workdept row joined")
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	// Unbound quantifier reference.
	g := qgm.NewGraph()
	b := g.NewBox(qgm.KindBaseTable, "t")
	b.Table = &catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "a", Type: datum.TInt}}}
	b.Output = []qgm.OutputCol{{Name: "a", Type: datum.TInt}}
	sel := g.NewBox(qgm.KindSelect, "s")
	qq := g.AddQuantifier(sel, qgm.ForEach, "q", b)
	if _, err := EvalExpr(qq.Col(0), Env{}); err == nil {
		t.Error("unbound ref should error")
	}
	if _, err := EvalExpr(&qgm.Like{X: &qgm.Const{Val: datum.Int(3)}, Pattern: "x"}, Env{}); err == nil {
		t.Error("LIKE on int should error")
	}
	// Non-boolean predicate.
	if _, err := EvalPred(&qgm.Const{Val: datum.Int(3)}, Env{}); err == nil {
		t.Error("integer predicate should error")
	}
}

func TestScalarQuantifierTypedNullRow(t *testing.T) {
	cat, store := testDB(t)
	// Scalar subquery over empty result must produce typed NULLs that flow
	// through COALESCE.
	got := runQuery(t, cat, store,
		"SELECT COALESCE((SELECT salary FROM employee WHERE empno = 9999), -1)")
	expect(t, got, []string{"-1"})
}

func TestStorageMissingRelation(t *testing.T) {
	g := qgm.NewGraph()
	b := g.NewBox(qgm.KindBaseTable, "ghost")
	b.Table = &catalog.Table{Name: "ghost", Columns: []catalog.Column{{Name: "a", Type: datum.TInt}}}
	b.Output = []qgm.OutputCol{{Name: "a", Type: datum.TInt}}
	g.Top = b
	if _, err := New(storage.NewStore()).EvalGraph(g); err == nil {
		t.Error("missing relation should error")
	}
}

// TestFixpointDirect drives the recursive evaluator at the exec level:
// the same fixpoint root consumed twice must be computed once (memoized),
// and ResetCaches must force recomputation.
func TestFixpointDirect(t *testing.T) {
	cat, store := testDB(t)
	if err := cat.AddView(&catalog.View{
		Name:    "boss",
		Columns: []string{"top", "sub"},
		SQL: "SELECT d.mgrno, e.empno FROM department d, employee e " +
			"WHERE e.workdept = d.deptno UNION " +
			"SELECT b.top, e2.empno FROM boss b, department d2, employee e2 " +
			"WHERE b.sub = d2.mgrno AND e2.workdept = d2.deptno",
	}); err != nil {
		t.Fatal(err)
	}
	q, err := sql.ParseQuery("SELECT a.top, b.sub FROM boss a, boss b WHERE a.sub = b.top")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(store)
	rows1, err := ev.EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	evals1 := ev.Counters.BoxEvals
	// Second evaluation on the same evaluator: fully memoized.
	if _, err := ev.EvalGraph(g); err != nil {
		t.Fatal(err)
	}
	if ev.Counters.BoxEvals != evals1 {
		t.Errorf("fixpoint recomputed on memoized evaluator: %d -> %d", evals1, ev.Counters.BoxEvals)
	}
	ev.ResetCaches()
	rows2, err := ev.EvalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows1) != len(rows2) {
		t.Errorf("rows differ after reset: %d vs %d", len(rows1), len(rows2))
	}
}
