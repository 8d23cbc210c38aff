package rewrite

import (
	"sort"
	"strings"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
)

// testDB builds the paper's schema plus data (shared shape with the exec
// package tests).
func testDB(t *testing.T) (*catalog.Catalog, *storage.Store) {
	t.Helper()
	cat := catalog.New()
	dept := &catalog.Table{
		Name: "department",
		Columns: []catalog.Column{
			{Name: "deptno", Type: datum.TInt},
			{Name: "deptname", Type: datum.TString},
			{Name: "mgrno", Type: datum.TInt},
		},
		Keys:    [][]int{{0}},
		Indexes: [][]int{{0}},
	}
	emp := &catalog.Table{
		Name: "employee",
		Columns: []catalog.Column{
			{Name: "empno", Type: datum.TInt},
			{Name: "empname", Type: datum.TString},
			{Name: "workdept", Type: datum.TInt},
			{Name: "salary", Type: datum.TFloat},
		},
		Keys:    [][]int{{0}},
		Indexes: [][]int{{0}, {2}},
	}
	if err := cat.AddTable(dept); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(emp); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*catalog.View{
		{
			Name:    "mgrSal",
			Columns: []string{"empno", "empname", "workdept", "salary"},
			SQL: "SELECT e.empno, e.empname, e.workdept, e.salary " +
				"FROM employee e, department d WHERE e.empno = d.mgrno",
		},
		{
			Name:    "avgMgrSal",
			Columns: []string{"workdept", "avgsalary"},
			SQL:     "SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
		},
		{
			Name: "deptnos",
			SQL:  "SELECT DISTINCT deptno FROM department",
		},
	} {
		if err := cat.AddView(v); err != nil {
			t.Fatal(err)
		}
	}

	store := storage.NewStore()
	dr := store.Create(dept)
	for _, row := range []datum.Row{
		{datum.Int(1), datum.String("Planning"), datum.Int(101)},
		{datum.Int(2), datum.String("Dev"), datum.Int(201)},
		{datum.Int(3), datum.String("Sales"), datum.Null()},
	} {
		if err := dr.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	er := store.Create(emp)
	for _, row := range []datum.Row{
		{datum.Int(101), datum.String("alice"), datum.Int(1), datum.Float(1000)},
		{datum.Int(102), datum.String("bob"), datum.Int(1), datum.Float(500)},
		{datum.Int(201), datum.String("carol"), datum.Int(2), datum.Float(800)},
		{datum.Int(202), datum.String("dan"), datum.Int(2), datum.Float(600)},
		{datum.Int(203), datum.String("eve"), datum.Int(2), datum.Float(700)},
		{datum.Int(301), datum.String("frank"), datum.Int(3), datum.Float(400)},
		{datum.Int(302), datum.String("grace"), datum.Null(), datum.Float(300)},
	} {
		if err := er.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return cat, store
}

func buildGraph(t *testing.T, cat *catalog.Catalog, query string) *qgm.Graph {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func evalRows(t *testing.T, store *storage.Store, g *qgm.Graph) []string {
	t.Helper()
	rows, _, err := exec.New(store).EvalPlan(plan.Lower(g))
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.Format()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func phase1Engine() *Engine {
	return NewEngine(
		MergeRule{},
		LocalPushdownRule{},
		ProjectionPruneRule{},
		DistinctPullupRule{},
		RedundantJoinRule{},
		TrivialSelectRule{},
	)
}

func runEngine(t *testing.T, g *qgm.Graph, e *Engine) {
	t.Helper()
	ctx := &Context{G: g, Validate: true}
	if err := e.Run(ctx); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("post-rewrite check: %v", err)
	}
}

// assertEquivalent verifies a transform preserves query results.
func assertEquivalent(t *testing.T, cat *catalog.Catalog, store *storage.Store, query string, transform func(*qgm.Graph)) {
	t.Helper()
	ref := buildGraph(t, cat, query)
	want := evalRows(t, store, ref)
	g := buildGraph(t, cat, query)
	transform(g)
	if err := g.Check(); err != nil {
		t.Fatalf("%q: transformed graph invalid: %v\n%s", query, err, g.Dump())
	}
	got := evalRows(t, store, g)
	if len(got) != len(want) {
		t.Fatalf("%q: got %v want %v\ngraph:\n%s", query, got, want, g.Dump())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q row %d: got %q want %q", query, i, got[i], want[i])
		}
	}
}

var equivalenceCorpus = []string{
	"SELECT d.deptname, s.workdept, s.avgsalary FROM department d, avgMgrSal s WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
	"SELECT empname, salary FROM mgrSal WHERE salary > 500",
	"SELECT workdept, avgsalary FROM avgMgrSal WHERE workdept = 2",
	"SELECT e.empname FROM employee e, deptnos dn WHERE e.workdept = dn.deptno",
	"SELECT x.workdept FROM (SELECT workdept FROM employee WHERE salary > 400) AS x WHERE x.workdept < 3",
	"SELECT DISTINCT m.workdept FROM mgrSal m, employee e WHERE m.workdept = e.workdept",
	"SELECT d.deptname FROM department d WHERE EXISTS (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 600)",
	"SELECT e.empname FROM employee e WHERE e.workdept NOT IN (SELECT deptno FROM department WHERE deptname = 'Dev')",
	"SELECT a.workdept, a.avgsalary FROM avgMgrSal a, avgMgrSal b WHERE a.workdept = b.workdept AND a.avgsalary > 500",
	"SELECT workdept, COUNT(*) FROM employee GROUP BY workdept HAVING COUNT(*) > 1",
	"SELECT deptno FROM department UNION SELECT workdept FROM employee WHERE workdept IS NOT NULL",
	"SELECT e1.empname FROM employee e1, employee e2 WHERE e1.empno = e2.empno",
	"SELECT e.empname FROM employee e WHERE e.salary > (SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)",
}

func TestPhase1RulesPreserveSemantics(t *testing.T) {
	cat, store := testDB(t)
	for _, query := range equivalenceCorpus {
		assertEquivalent(t, cat, store, query, func(g *qgm.Graph) {
			runEngine(t, g, phase1Engine())
		})
	}
}

func TestCorrelatePreservesSemantics(t *testing.T) {
	cat, store := testDB(t)
	for _, query := range equivalenceCorpus {
		assertEquivalent(t, cat, store, query, CorrelateViews)
	}
}

func TestMergeCollapsesView(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT empname FROM mgrSal WHERE salary > 500")
	before := g.Stats().Boxes
	runEngine(t, g, NewEngine(MergeRule{}))
	after := g.Stats().Boxes
	if after >= before {
		t.Errorf("merge did not reduce boxes: %d -> %d\n%s", before, after, g.Dump())
	}
	// mgrSal's select should be merged into the top: one select box over
	// two base tables.
	if got := g.Stats().SelectBoxes; got != 1 {
		t.Errorf("select boxes = %d; want 1\n%s", got, g.Dump())
	}
}

func TestMergeQueryDPhase1Shape(t *testing.T) {
	// The paper's Example 3.1: phase 1 merges AVGMGRSAL's having-select into
	// QUERY and MGRSAL into T1, leaving QUERY -> GROUPBY -> T1.
	cat, _ := testDB(t)
	g := buildGraph(t, cat, `SELECT d.deptname, s.workdept, s.avgsalary
		FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`)
	runEngine(t, g, phase1Engine())
	s := g.Stats()
	// Expect: QUERY select, group-by box, T1 select, employee, department.
	if s.GroupBys != 1 || s.SelectBoxes != 2 {
		t.Errorf("phase1 shape: %s\n%s", s, g.Dump())
	}
}

func TestMergeRespectsSharedViews(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT a.workdept FROM avgMgrSal a, avgMgrSal b WHERE a.workdept = b.workdept")
	runEngine(t, g, NewEngine(MergeRule{}))
	// The shared mgrSal blob under both avgMgrSal triplets must stay one
	// box: merging never duplicates a common subexpression.
	var gbBoxes int
	for _, b := range g.Reachable() {
		if b.Kind == qgm.KindGroupBy {
			gbBoxes++
		}
	}
	if gbBoxes != 1 {
		t.Errorf("shared view blob duplicated: %d group-by boxes\n%s", gbBoxes, g.Dump())
	}
}

func TestMergeKeepsEnforcedDistinct(t *testing.T) {
	cat, _ := testDB(t)
	// deptnos is SELECT DISTINCT deptno: duplicate-free (deptno is a key),
	// so distinct pull-up will allow the merge. Force merge-only first.
	g := buildGraph(t, cat, "SELECT e.empname FROM employee e, deptnos dn WHERE e.workdept = dn.deptno")
	dn := g.BoxesByName("DEPTNOS")
	if len(dn) != 1 || dn[0].Distinct != qgm.DistinctEnforce {
		t.Fatalf("setup: %v", dn)
	}
	// deptno is the department key, so DuplicateFree holds and the merge is
	// allowed even with enforcement.
	runEngine(t, g, NewEngine(MergeRule{}))
	if got := g.Stats().SelectBoxes; got != 1 {
		t.Errorf("expected merge of duplicate-free DISTINCT view, got %d select boxes\n%s", got, g.Dump())
	}
}

func TestMergeBlockedWhenDuplicatesMatter(t *testing.T) {
	cat, _ := testDB(t)
	if err := cat.AddView(&catalog.View{
		Name: "depts_used",
		SQL:  "SELECT DISTINCT workdept FROM employee",
	}); err != nil {
		t.Fatal(err)
	}
	// workdept is not a key: the DISTINCT is load-bearing; merging into a
	// duplicate-preserving parent would change multiplicities.
	g := buildGraph(t, cat, "SELECT du.workdept FROM depts_used du, employee e WHERE du.workdept = e.workdept")
	runEngine(t, g, NewEngine(MergeRule{}))
	if got := g.Stats().SelectBoxes; got != 2 {
		t.Errorf("DISTINCT view must not merge: %d select boxes\n%s", got, g.Dump())
	}
}

func TestLocalPushdown(t *testing.T) {
	cat, _ := testDB(t)
	// Predicate on the view output must sink into the view's select box
	// (through the derived table).
	g := buildGraph(t, cat, "SELECT x.empname FROM (SELECT empname, salary FROM employee) AS x WHERE x.salary > 500")
	runEngine(t, g, NewEngine(LocalPushdownRule{}))
	if len(g.Top.Preds) != 0 {
		t.Errorf("predicate not pushed out of top box:\n%s", g.Dump())
	}
	inner := g.Top.Quantifiers[0].Ranges
	if len(inner.Preds) != 1 {
		t.Errorf("predicate not in inner box:\n%s", g.Dump())
	}
}

func TestLocalPushdownThroughGroupBy(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT s.workdept FROM avgMgrSal s WHERE s.workdept = 2")
	runEngine(t, g, NewEngine(LocalPushdownRule{}))
	// The predicate must traverse HV -> GB -> T1 and land on T1.
	if len(g.Top.Preds) != 0 {
		t.Errorf("predicate stayed in top:\n%s", g.Dump())
	}
	found := false
	for _, b := range g.Reachable() {
		if b.Kind == qgm.KindSelect {
			for _, p := range b.Preds {
				if strings.Contains(p.String(), "= 2") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("pushed predicate lost:\n%s", g.Dump())
	}
}

func TestPushdownBlockedOnAggregateColumn(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT s.workdept FROM avgMgrSal s WHERE s.avgsalary > 600")
	runEngine(t, g, NewEngine(LocalPushdownRule{}))
	// avgsalary is an aggregate output: the predicate cannot cross the
	// group-by box. The top box here is the HV select of the view
	// expansion... the predicate must remain above the group-by.
	gb := g.BoxesByName("")
	_ = gb
	var groupBox *qgm.Box
	for _, b := range g.Reachable() {
		if b.Kind == qgm.KindGroupBy {
			groupBox = b
		}
	}
	if groupBox == nil {
		t.Fatal("no group-by box")
	}
	t1 := groupBox.Quantifiers[0].Ranges
	for _, p := range t1.Preds {
		if strings.Contains(p.String(), "600") {
			t.Errorf("aggregate predicate illegally pushed below group-by:\n%s", g.Dump())
		}
	}
}

func TestDistinctPullup(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT dn.deptno FROM deptnos dn")
	dn := g.BoxesByName("DEPTNOS")[0]
	if dn.Distinct != qgm.DistinctEnforce {
		t.Fatal("setup: expected enforced distinct")
	}
	runEngine(t, g, NewEngine(DistinctPullupRule{}))
	// deptno is department's key: provably duplicate-free.
	if dn.Distinct != qgm.DistinctPermit {
		t.Errorf("distinct not pulled up: %v", dn.Distinct)
	}
}

func TestDistinctPullupBlockedOnNonKey(t *testing.T) {
	cat, _ := testDB(t)
	if err := cat.AddView(&catalog.View{
		Name: "wd",
		SQL:  "SELECT DISTINCT workdept FROM employee",
	}); err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, cat, "SELECT workdept FROM wd")
	wd := g.BoxesByName("WD")[0]
	runEngine(t, g, NewEngine(DistinctPullupRule{}))
	if wd.Distinct != qgm.DistinctEnforce {
		t.Errorf("distinct wrongly pulled up on non-key column")
	}
}

func TestUniqueSets(t *testing.T) {
	cat, _ := testDB(t)
	// Join projecting both keys: unique on the pair.
	g := buildGraph(t, cat, "SELECT e.empno, d.deptno, e.empname FROM employee e, department d WHERE e.workdept = d.deptno")
	sets := UniqueSets(g.Top)
	if len(sets) == 0 {
		t.Fatalf("no unique sets for key-projecting join:\n%s", g.Dump())
	}
	// Not projecting employee's key: no uniqueness.
	g = buildGraph(t, cat, "SELECT e.empname, d.deptno FROM employee e, department d WHERE e.workdept = d.deptno")
	if sets := UniqueSets(g.Top); len(sets) != 0 {
		t.Errorf("unexpected unique sets %v", sets)
	}
	// Group-by: unique on grouping columns.
	g = buildGraph(t, cat, "SELECT workdept, COUNT(*) FROM employee GROUP BY workdept")
	gb := g.Top.Quantifiers[0].Ranges
	sets = UniqueSets(gb)
	if len(sets) != 1 || len(sets[0]) != 1 || sets[0][0] != 0 {
		t.Errorf("group-by unique sets = %v", sets)
	}
}

func TestProjectionPrune(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT x.empno FROM (SELECT empno, empname, workdept, salary FROM employee) AS x")
	inner := g.Top.Quantifiers[0].Ranges
	if len(inner.Output) != 4 {
		t.Fatal("setup")
	}
	runEngine(t, g, NewEngine(ProjectionPruneRule{}))
	if len(inner.Output) != 1 {
		t.Errorf("outputs = %d; want 1\n%s", len(inner.Output), g.Dump())
	}
}

func TestProjectionPrunePreservesGroupingColumns(t *testing.T) {
	cat, store := testDB(t)
	assertEquivalent(t, cat, store,
		"SELECT x.c FROM (SELECT workdept, COUNT(*) AS c, SUM(salary) AS s FROM employee GROUP BY workdept) AS x",
		func(g *qgm.Graph) { runEngine(t, g, phase1Engine()) })
}

func TestRedundantJoinElimination(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT e1.empname FROM employee e1, employee e2 WHERE e1.empno = e2.empno")
	runEngine(t, g, NewEngine(RedundantJoinRule{}))
	if len(g.Top.Quantifiers) != 1 {
		t.Errorf("self-join not eliminated:\n%s", g.Dump())
	}
	// An IS NOT NULL guard must replace the equality.
	found := false
	for _, p := range g.Top.Preds {
		if isn, ok := p.(*qgm.IsNull); ok && isn.Negate {
			found = true
		}
	}
	if !found {
		t.Errorf("missing IS NOT NULL guard:\n%s", g.Dump())
	}
}

func TestRedundantJoinNotEliminatedOnNonKey(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT e1.empname FROM employee e1, employee e2 WHERE e1.workdept = e2.workdept")
	runEngine(t, g, NewEngine(RedundantJoinRule{}))
	if len(g.Top.Quantifiers) != 2 {
		t.Errorf("non-key self-join wrongly eliminated:\n%s", g.Dump())
	}
}

func TestCorrelateViewsMakesViewCorrelated(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`)
	CorrelateViews(g)
	if err := g.Check(); err != nil {
		t.Fatalf("check: %v\n%s", err, g.Dump())
	}
	// The join predicate must be gone from the top box.
	for _, p := range g.Top.Preds {
		refs := qgm.RefsQuantifiers(p)
		if len(refs) > 1 {
			t.Errorf("join predicate still in top box: %s", p)
		}
	}
}

func TestTrivialSelectElimination(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, "SELECT x.deptno, x.deptname, x.mgrno FROM (SELECT deptno, deptname, mgrno FROM department) AS x WHERE x.deptno = 1")
	// First merge handles this case; use TrivialSelect alone on a crafted
	// graph instead: build identity select over group-by.
	g2 := buildGraph(t, cat, "SELECT s.workdept, s.avgsalary FROM avgMgrSal s")
	before := g2.Stats().Boxes
	runEngine(t, g2, NewEngine(TrivialSelectRule{}, MergeRule{}))
	if g2.Stats().Boxes >= before {
		t.Errorf("trivial selects not removed: %d -> %d\n%s", before, g2.Stats().Boxes, g2.Dump())
	}
	_ = g
}

func TestEngineReachesFixpoint(t *testing.T) {
	cat, _ := testDB(t)
	g := buildGraph(t, cat, equivalenceCorpus[0])
	e := phase1Engine()
	ctx := &Context{G: g, Validate: true}
	if err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Running again must be a no-op (fixpoint).
	fired := false
	ctx.Trace = func(string, *qgm.Box) { fired = true }
	if err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("engine not at fixpoint after Run")
	}
}

func TestCorrelatedExecutionCounters(t *testing.T) {
	cat, store := testDB(t)
	query := "SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s WHERE d.deptno = s.workdept"
	// Materialized: employee scanned once for the view.
	g1 := buildGraph(t, cat, query)
	ev1 := exec.New(store)
	if _, _, err := ev1.EvalPlan(plan.Lower(g1)); err != nil {
		t.Fatal(err)
	}
	// Correlated: view re-evaluated per department row.
	g2 := buildGraph(t, cat, query)
	CorrelateViews(g2)
	ev2 := exec.New(store)
	ev2.NoSubqueryCache = true
	if _, _, err := ev2.EvalPlan(plan.Lower(g2)); err != nil {
		t.Fatal(err)
	}
	if ev2.Counters.BaseRows <= ev1.Counters.BaseRows {
		t.Errorf("correlated execution should scan more: %d vs %d",
			ev2.Counters.BaseRows, ev1.Counters.BaseRows)
	}
}
