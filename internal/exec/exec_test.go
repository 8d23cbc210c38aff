package exec

import (
	"sort"
	"strings"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
)

// evalGraph lowers g and runs its plan on ev.
func evalGraph(ev *Evaluator, g *qgm.Graph) ([]datum.Row, error) {
	rows, _, err := ev.EvalPlan(plan.Lower(g))
	return rows, err
}

// testDB wires up the paper's schema with small deterministic data:
//
//	department(deptno, deptname, mgrno): 3 departments; Planning=1 (mgr 101),
//	  Dev=2 (mgr 201), Sales=3 (mgr NULL)
//	employee(empno, empname, workdept, salary)
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
	if err := cat.AddView(&catalog.View{
		Name:    "mgrSal",
		Columns: []string{"empno", "empname", "workdept", "salary"},
		SQL: "SELECT e.empno, e.empname, e.workdept, e.salary " +
			"FROM employee e, department d WHERE e.empno = d.mgrno",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddView(&catalog.View{
		Name:    "avgMgrSal",
		Columns: []string{"workdept", "avgsalary"},
		SQL:     "SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept",
	}); err != nil {
		t.Fatal(err)
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

// runQuery builds and evaluates query, returning rows rendered as strings
// sorted for order-insensitive comparison.
func runQuery(t *testing.T, cat *catalog.Catalog, store *storage.Store, query string) []string {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatalf("build %q: %v", query, err)
	}
	ev := New(store)
	rows, err := evalGraph(ev, g)
	if err != nil {
		t.Fatalf("eval %q: %v", query, err)
	}
	return renderRows(rows)
}

func renderRows(rows []datum.Row) []string {
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

// runOrdered is runQuery without sorting (for ORDER BY tests).
func runOrdered(t *testing.T, cat *catalog.Catalog, store *storage.Store, query string) []string {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rows, err := evalGraph(New(store), g)
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
	return out
}

func expect(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v; want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q; want %q\nall: %v", i, got[i], want[i], got)
		}
	}
}

func TestScanAndFilter(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT deptname FROM department WHERE deptno > 1")
	expect(t, got, []string{"Dev", "Sales"})
}

func TestJoin(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT e.empname, d.deptname FROM employee e, department d WHERE e.workdept = d.deptno AND d.deptname = 'Dev'")
	expect(t, got, []string{"carol|Dev", "dan|Dev", "eve|Dev"})
}

func TestJoinNullNeverMatches(t *testing.T) {
	cat, store := testDB(t)
	// grace has NULL workdept; Sales has NULL mgrno — NULLs must not join.
	got := runQuery(t, cat, store,
		"SELECT e.empname FROM employee e, department d WHERE e.workdept = d.deptno")
	expect(t, got, []string{"alice", "bob", "carol", "dan", "eve", "frank"})
}

func TestThreeWayJoinOrderIndependence(t *testing.T) {
	cat, store := testDB(t)
	q1 := runQuery(t, cat, store,
		"SELECT e.empname FROM employee e, department d, employee m WHERE e.workdept = d.deptno AND d.mgrno = m.empno")
	q2 := runQuery(t, cat, store,
		"SELECT e.empname FROM department d, employee m, employee e WHERE e.workdept = d.deptno AND d.mgrno = m.empno")
	expect(t, q1, q2)
	expect(t, q1, []string{"alice", "bob", "carol", "dan", "eve"})
}

func TestProjectionArithmetic(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT empname, salary * 2 FROM employee WHERE empno = 101")
	expect(t, got, []string{"alice|2000"})
}

func TestDistinct(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT DISTINCT workdept FROM employee")
	expect(t, got, []string{"1", "2", "3", "NULL"})
}

func TestGroupByAggregates(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT workdept, COUNT(*), AVG(salary), MIN(salary), MAX(salary) FROM employee GROUP BY workdept")
	expect(t, got, []string{
		"1|2|750|500|1000",
		"2|3|700|600|800",
		"3|1|400|400|400",
		"NULL|1|300|300|300",
	})
}

func TestGroupByHaving(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT workdept FROM employee GROUP BY workdept HAVING COUNT(*) > 1")
	expect(t, got, []string{"1", "2"})
}

func TestScalarAggregateOverEmpty(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT COUNT(*), SUM(salary) FROM employee WHERE empno = 99999")
	expect(t, got, []string{"0|NULL"})
}

func TestCountDistinct(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT COUNT(DISTINCT workdept), COUNT(workdept), COUNT(*) FROM employee")
	expect(t, got, []string{"3|6|7"})
}

func TestViewEvaluation(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT empname, salary FROM mgrSal")
	expect(t, got, []string{"alice|1000", "carol|800"})
}

func TestPaperQueryD(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, `SELECT d.deptname, s.workdept, s.avgsalary
		FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`)
	expect(t, got, []string{"Planning|1|1000"})
}

func TestExists(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT deptname FROM department d WHERE EXISTS (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 700)")
	expect(t, got, []string{"Dev", "Planning"})
}

func TestNotExists(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT deptname FROM department d WHERE NOT EXISTS (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 700)")
	expect(t, got, []string{"Sales"})
}

func TestInSubquery(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE workdept IN (SELECT deptno FROM department WHERE deptname = 'Dev')")
	expect(t, got, []string{"carol", "dan", "eve"})
}

func TestNotInWithNulls(t *testing.T) {
	cat, store := testDB(t)
	// Subquery has no NULLs here: mgrno NULL excluded by IS NOT NULL.
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE empno NOT IN (SELECT mgrno FROM department WHERE mgrno IS NOT NULL)")
	expect(t, got, []string{"bob", "dan", "eve", "frank", "grace"})
	// With NULL in the subquery, NOT IN yields UNKNOWN for every row: empty.
	got = runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE empno NOT IN (SELECT mgrno FROM department)")
	expect(t, got, []string{})
	// x IN S where x matches is still TRUE despite NULLs in S.
	got = runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE empno IN (SELECT mgrno FROM department)")
	expect(t, got, []string{"alice", "carol"})
}

func TestNullLhsNotIn(t *testing.T) {
	cat, store := testDB(t)
	// grace has NULL workdept: NULL NOT IN (non-empty set) is UNKNOWN.
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE workdept NOT IN (SELECT deptno FROM department WHERE deptno = 1)")
	expect(t, got, []string{"carol", "dan", "eve", "frank"})
}

func TestAllQuantifier(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE salary > ALL (SELECT salary FROM employee WHERE workdept = 2)")
	expect(t, got, []string{"alice"})
	// ALL over empty set is vacuously true.
	got = runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE salary > ALL (SELECT salary FROM employee WHERE workdept = 99)")
	if len(got) != 7 {
		t.Errorf("ALL over empty set: got %d rows; want 7", len(got))
	}
}

func TestAnyQuantifier(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE salary < ANY (SELECT salary FROM employee WHERE workdept = 3)")
	expect(t, got, []string{"grace"})
}

func TestScalarSubquery(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE salary > (SELECT AVG(salary) FROM employee)")
	// AVG = (1000+500+800+600+700+400+300)/7 = 614.28...
	expect(t, got, []string{"alice", "carol", "eve"})
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		`SELECT e.empname FROM employee e WHERE e.salary >
		   (SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)`)
	expect(t, got, []string{"alice", "carol"})
}

func TestScalarSubqueryEmptyIsNull(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT empname FROM employee WHERE salary > (SELECT salary FROM employee WHERE empno = 9999)")
	expect(t, got, []string{})
}

func TestScalarSubqueryMultiRowErrors(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery("SELECT empname FROM employee WHERE salary > (SELECT salary FROM employee WHERE workdept = 2)")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalGraph(New(store), g); err == nil || !strings.Contains(err.Error(), "scalar subquery") {
		t.Errorf("want scalar subquery error, got %v", err)
	}
}

func TestUnionAndSetOps(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT deptno FROM department UNION SELECT workdept FROM employee")
	expect(t, got, []string{"1", "2", "3", "NULL"})
	got = runQuery(t, cat, store,
		"SELECT workdept FROM employee WHERE workdept = 1 UNION ALL SELECT deptno FROM department WHERE deptno = 1")
	expect(t, got, []string{"1", "1", "1"})
	got = runQuery(t, cat, store,
		"SELECT deptno FROM department EXCEPT SELECT workdept FROM employee WHERE workdept IS NOT NULL")
	expect(t, got, []string{})
	got = runQuery(t, cat, store,
		"SELECT deptno FROM department WHERE deptno < 3 INTERSECT SELECT workdept FROM employee")
	expect(t, got, []string{"1", "2"})
}

func TestExceptAllMultiplicity(t *testing.T) {
	cat, store := testDB(t)
	// workdept=2 appears 3 times; EXCEPT ALL with one 2 removes one copy.
	got := runQuery(t, cat, store,
		"SELECT workdept FROM employee WHERE workdept = 2 EXCEPT ALL SELECT deptno FROM department WHERE deptno = 2")
	expect(t, got, []string{"2", "2"})
}

func TestIntersectAllMultiplicity(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT workdept FROM employee WHERE workdept = 2 INTERSECT ALL SELECT deptno FROM department WHERE deptno = 2")
	expect(t, got, []string{"2"})
}

func TestOrderByLimit(t *testing.T) {
	cat, store := testDB(t)
	got := runOrdered(t, cat, store,
		"SELECT empname, salary FROM employee ORDER BY salary DESC LIMIT 3")
	expect(t, got, []string{"alice|1000", "carol|800", "eve|700"})
	got = runOrdered(t, cat, store,
		"SELECT empname FROM employee WHERE workdept IS NULL OR workdept = 3 ORDER BY empname")
	expect(t, got, []string{"frank", "grace"})
}

func TestOrderByNullsFirst(t *testing.T) {
	cat, store := testDB(t)
	got := runOrdered(t, cat, store,
		"SELECT workdept FROM employee GROUP BY workdept ORDER BY workdept")
	expect(t, got, []string{"NULL", "1", "2", "3"})
}

func TestLikeAndBetween(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT empname FROM employee WHERE empname LIKE '%a%e'")
	expect(t, got, []string{"alice", "grace"})
	got = runQuery(t, cat, store, "SELECT empname FROM employee WHERE salary BETWEEN 500 AND 700")
	expect(t, got, []string{"bob", "dan", "eve"})
	got = runQuery(t, cat, store, "SELECT empname FROM employee WHERE salary NOT BETWEEN 400 AND 900")
	expect(t, got, []string{"alice", "grace"})
}

func TestInList(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT empname FROM employee WHERE workdept IN (1, 3)")
	expect(t, got, []string{"alice", "bob", "frank"})
	got = runQuery(t, cat, store, "SELECT empname FROM employee WHERE workdept NOT IN (1, 3)")
	expect(t, got, []string{"carol", "dan", "eve"})
}

func TestIsNull(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT empname FROM employee WHERE workdept IS NULL")
	expect(t, got, []string{"grace"})
	got = runQuery(t, cat, store, "SELECT deptname FROM department WHERE mgrno IS NOT NULL")
	expect(t, got, []string{"Dev", "Planning"})
}

func TestDerivedTable(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT x.workdept, x.c FROM (SELECT workdept, COUNT(*) AS c FROM employee GROUP BY workdept) AS x WHERE x.c > 1")
	expect(t, got, []string{"1|2", "2|3"})
}

func TestSelectWithoutFrom(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store, "SELECT 1 + 2, 'x' || 'y'")
	expect(t, got, []string{"3|xy"})
}

func TestDivisionByZeroErrors(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery("SELECT 1 / 0")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalGraph(New(store), g); err == nil {
		t.Error("division by zero should error at runtime")
	}
}

func TestSharedViewMaterializedOnce(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery("SELECT a.workdept FROM avgMgrSal a, avgMgrSal b WHERE a.workdept = b.workdept")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(store)
	if _, err := evalGraph(ev, g); err != nil {
		t.Fatal(err)
	}
	// employee is scanned exactly once: the shared view blob is memoized.
	if ev.Counters.BaseRows > 7+3 {
		t.Errorf("BaseRows = %d; shared view must be materialized once", ev.Counters.BaseRows)
	}
}

func TestNoSubqueryCacheReevaluates(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery(
		"SELECT e.empname FROM employee e WHERE e.salary > (SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	cached := New(store)
	if _, err := evalGraph(cached, g); err != nil {
		t.Fatal(err)
	}
	uncached := New(store)
	uncached.NoSubqueryCache = true
	if _, err := evalGraph(uncached, g); err != nil {
		t.Fatal(err)
	}
	// 7 employees, 4 distinct workdept values (incl NULL): cached mode runs
	// the subquery once per distinct binding, uncached once per row.
	if uncached.Counters.SubqueryEvals <= cached.Counters.SubqueryEvals {
		t.Errorf("uncached %d evals vs cached %d; want more when uncached",
			uncached.Counters.SubqueryEvals, cached.Counters.SubqueryEvals)
	}
	if cached.Counters.SubqueryEvals != 4 {
		t.Errorf("cached subquery evals = %d; want 4 (distinct bindings)", cached.Counters.SubqueryEvals)
	}
	if uncached.Counters.SubqueryEvals != 7 {
		t.Errorf("uncached subquery evals = %d; want 7 (per row)", uncached.Counters.SubqueryEvals)
	}
}

func TestIndexLookupUsed(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery(
		"SELECT e.empname FROM department d, employee e WHERE d.deptno = 2 AND e.workdept = d.deptno")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	// Force join order department then employee so the index on workdept
	// is probeable.
	top := g.Top
	if top.Quantifiers[0].Name != "d" {
		t.Fatal("unexpected quantifier order")
	}
	ev := New(store)
	rows, err := evalGraph(ev, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if ev.Counters.IndexLookups == 0 {
		t.Error("index lookup not used for equality join on indexed column")
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "_b_", true},
		{"abc", "_b", false},
		{"abc", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "a_c", true},
		{"aXbc", "a%bc", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ppx", false},
		{"abc", "ABC", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v; want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMaxRowsBudget(t *testing.T) {
	cat, store := testDB(t)
	q, err := sql.ParseQuery("SELECT e1.empno FROM employee e1, employee e2, employee e3")
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(store)
	ev.MaxRows = 10
	if _, err := evalGraph(ev, g); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("want budget error, got %v", err)
	}
}

func TestGroupByExpression(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT workdept * 10, COUNT(*) FROM employee GROUP BY workdept * 10")
	expect(t, got, []string{"10|2", "20|3", "30|1", "NULL|1"})
}

func TestHavingOnAggregate(t *testing.T) {
	cat, store := testDB(t)
	got := runQuery(t, cat, store,
		"SELECT workdept, SUM(salary) FROM employee GROUP BY workdept HAVING SUM(salary) >= 1500")
	expect(t, got, []string{"1|1500", "2|2100"})
}
