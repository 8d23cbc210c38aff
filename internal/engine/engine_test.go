package engine

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"starmagic/internal/datum"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
	"starmagic/internal/testutil"
)

// paperDDL sets up the paper's schema through SQL DDL.
const paperDDL = `
CREATE TABLE department (deptno INT, deptname VARCHAR(30), mgrno INT, PRIMARY KEY (deptno));
CREATE TABLE employee (empno INT, empname VARCHAR(30), workdept INT, salary FLOAT, PRIMARY KEY (empno));
CREATE INDEX emp_workdept ON employee (workdept);
CREATE VIEW mgrSal (empno, empname, workdept, salary) AS
  SELECT e.empno, e.empname, e.workdept, e.salary
  FROM employee e, department d WHERE e.empno = d.mgrno;
CREATE VIEW avgMgrSal (workdept, avgsalary) AS
  SELECT workdept, AVG(salary) FROM mgrSal GROUPBY workdept;
`

const paperData = `
INSERT INTO department VALUES (1, 'Planning', 101), (2, 'Dev', 201), (3, 'Sales', NULL);
INSERT INTO employee VALUES
  (101, 'alice', 1, 1000), (102, 'bob', 1, 500),
  (201, 'carol', 2, 800), (202, 'dan', 2, 600), (203, 'eve', 2, 700),
  (301, 'frank', 3, 400), (302, 'grace', NULL, 300);
`

func newDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(paperDDL); err != nil {
		t.Fatal(err)
	}
	n, err := db.Exec(paperData)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("inserted %d rows; want 10", n)
	}
	return db
}

func rowsAsStrings(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, d := range r {
			parts[i] = d.Format()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

// referenceRows answers query with the naive reference evaluator
// (testutil.Reference) on its bound graph, before any rewrite, reading view,
// or a snapshot of the committed state when view is nil.
func referenceRows(t *testing.T, db *Database, view *storage.View, query string) []datum.Row {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	g, err := semant.NewBuilder(db.cat).Build(q)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	if view == nil {
		ts := db.retainSnapshot()
		defer db.releaseSnapshot(ts)
		view = db.store.NewView(storage.Snap{TS: ts})
	}
	rows, err := testutil.Reference(g, view, nil)
	if err != nil {
		t.Fatalf("%q (reference): %v", query, err)
	}
	return rows
}

// bag renders rows as one string, order-insensitively. A FLOAT renders to
// 12 significant digits: a sum's last bits depend on the order its
// evaluator adds the rows in, and the reference joins in FROM order.
func bag(rows []datum.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.Format()
			if d.T == datum.TFloat && !d.IsNull() {
				parts[j] = strconv.FormatFloat(d.F, 'g', 12, 64)
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

func TestEndToEndQueryD(t *testing.T) {
	db := newDB(t)
	query := `SELECT d.deptname, s.workdept, s.avgsalary
		FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	for _, strat := range []Strategy{Original, Correlated, EMST} {
		res, err := db.QueryWith(query, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got := rowsAsStrings(res)
		if len(got) != 1 || got[0] != "Planning|1|1000" {
			t.Errorf("%v: rows = %v", strat, got)
		}
		if res.Plan.Strategy != strat {
			t.Errorf("strategy echo wrong: %v", res.Plan.Strategy)
		}
	}
}

func TestColumnsNamed(t *testing.T) {
	db := newDB(t)
	res, err := db.Query("SELECT empname AS who, salary FROM employee WHERE empno = 101")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "who" || res.Columns[1] != "salary" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestStrategiesAgreeOnCorpus(t *testing.T) {
	db := newDB(t)
	corpus := []string{
		"SELECT empname FROM mgrSal",
		"SELECT workdept, avgsalary FROM avgMgrSal",
		"SELECT d.deptname FROM department d WHERE EXISTS (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 700)",
		"SELECT e.empname FROM employee e WHERE e.salary > (SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept)",
		"SELECT workdept, COUNT(*) FROM employee GROUP BY workdept HAVING COUNT(*) > 1",
		"SELECT deptno FROM department UNION SELECT workdept FROM employee",
		"SELECT m.empname, d.deptname FROM mgrSal m, department d WHERE m.workdept = d.deptno",
	}
	for _, q := range corpus {
		ref, err := db.QueryWith(q, Original)
		if err != nil {
			t.Fatalf("original %q: %v", q, err)
		}
		want := strings.Join(sortStrings(rowsAsStrings(ref)), ";")
		for _, strat := range []Strategy{Correlated, EMST} {
			res, err := db.QueryWith(q, strat)
			if err != nil {
				t.Fatalf("%v %q: %v", strat, q, err)
			}
			got := strings.Join(sortStrings(rowsAsStrings(res)), ";")
			if got != want {
				t.Errorf("%v %q:\ngot  %s\nwant %s", strat, q, got, want)
			}
		}
	}
}

func sortStrings(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestOrderByThroughEngine(t *testing.T) {
	db := newDB(t)
	res, err := db.Query("SELECT empname FROM employee ORDER BY salary DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != 2 || got[0] != "alice" || got[1] != "carol" {
		t.Errorf("rows = %v", got)
	}
}

func TestPreparedReexecution(t *testing.T) {
	db := newDB(t)
	p, err := db.Prepare("SELECT COUNT(*) FROM employee", EMST)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I != 7 || r2.Rows[0][0].I != 7 {
		t.Errorf("counts = %v, %v", r1.Rows[0][0], r2.Rows[0][0])
	}
}

func TestInsertAfterPrepareSeesNewData(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("INSERT INTO employee VALUES (401, 'henry', 1, 950)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 8 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestExplainShowsPhases(t *testing.T) {
	db := newDB(t)
	out, err := db.Explain(`SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`, EMST)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"initial", "phase1", "phase2", "phase3", "cost before EMST", "magic"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	out, err = db.Explain("SELECT empname FROM mgrSal", Correlated)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "correlated") {
		t.Errorf("correlated explain:\n%s", out)
	}
}

func TestDDLErrors(t *testing.T) {
	db := New()
	cases := []string{
		"CREATE TABLE t (a INT, PRIMARY KEY (zzz))",
		"CREATE INDEX i ON missing (a)",
		"INSERT INTO missing VALUES (1)",
		"DROP VIEW missing",
	}
	for _, q := range cases {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%q succeeded; want error", q)
		}
	}
}

func TestViewValidationAtCreate(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("CREATE VIEW bad AS SELECT nonexistent FROM employee"); err == nil {
		t.Error("invalid view accepted")
	}
	if _, ok := db.Catalog().View("bad"); ok {
		t.Error("rejected view left registered")
	}
	// Forward references are deferred to first use (mutual recursion).
	if _, err := db.Exec("CREATE VIEW fwd AS SELECT a FROM definedlater"); err != nil {
		t.Errorf("forward reference rejected at create: %v", err)
	}
	if _, err := db.Query("SELECT a FROM fwd"); err == nil {
		t.Error("unresolved forward reference did not error at use")
	}
}

func TestInsertTypeErrors(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("INSERT INTO employee VALUES ('text', 'x', 1, 1)"); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := db.Exec("INSERT INTO employee VALUES (1)"); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestInsertConstExpressions(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("INSERT INTO employee VALUES (-500, 'neg', 1 + 1, 2 * 300.5)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT workdept, salary FROM employee WHERE empno = -500")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAsStrings(res); len(got) != 1 || got[0] != "2|601" {
		t.Errorf("rows = %v", got)
	}
}

func TestCreateIndexRebuildsExistingRows(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("CREATE INDEX emp_sal ON employee (salary)"); err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Store().Relation("employee")
	rows, used := rel.Lookup([]int{3}, datum.Row{datum.Float(700)})
	if !used || len(rows) != 1 {
		t.Errorf("index after rebuild: used=%v rows=%d", used, len(rows))
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"emst": EMST, "magic": EMST, "original": Original, "corr": Correlated,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestAutoAnalyzeOnQuery(t *testing.T) {
	db := newDB(t)
	// statsDirty set by the INSERTs; Prepare must trigger Analyze.
	if _, err := db.Query("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	dept, _ := db.Catalog().Table("department")
	if dept.RowCount != 3 {
		t.Errorf("RowCount = %d; want 3 (auto-analyze)", dept.RowCount)
	}
}

func TestPlanInfoPopulated(t *testing.T) {
	db := newDB(t)
	res, err := db.QueryWith("SELECT e.empname FROM employee e, department d WHERE e.workdept = d.deptno", EMST)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.PlansConsidered == 0 {
		t.Error("PlansConsidered not recorded")
	}
	if res.Plan.Counters.BoxEvals == 0 {
		t.Error("Counters not recorded")
	}
}

func TestInsertSelect(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`CREATE TABLE wellpaid (empno INT, salary FLOAT, PRIMARY KEY (empno))`); err != nil {
		t.Fatal(err)
	}
	n, err := db.Exec("INSERT INTO wellpaid SELECT empno, salary FROM employee WHERE salary >= 700")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("inserted %d; want 3", n)
	}
	res, err := db.Query("SELECT COUNT(*) FROM wellpaid")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// Arity mismatch rejected.
	if _, err := db.Exec("INSERT INTO wellpaid SELECT empno FROM employee"); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Sourcing from a view through the magic pipeline.
	if _, err := db.Exec("INSERT INTO wellpaid SELECT workdept * 1000, avgsalary FROM avgMgrSal WHERE workdept = 2"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT salary FROM wellpaid WHERE empno = 2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 800 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestConcurrentQueries hammers the database from several goroutines while
// a writer inserts; run with -race to validate the locking discipline.
func TestConcurrentQueries(t *testing.T) {
	db := newDB(t)
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 30; i++ {
				if _, err := db.Query("SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s WHERE d.deptno = s.workdept"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 2; w++ {
		base := (w + 5) * 1000
		go func() {
			for i := 0; i < 20; i++ {
				if err := db.InsertRows("employee", []datum.Row{
					{datum.Int(int64(base + i)), datum.String("x"), datum.Int(1), datum.Float(1)},
				}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeleteRows(t *testing.T) {
	db := newDB(t)
	n, err := db.Exec("DELETE FROM employee WHERE salary < 500")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // frank(400) and grace(300)
		t.Fatalf("deleted %d; want 2", n)
	}
	res, err := db.Query("SELECT COUNT(*) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 5 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	// Index still consistent after rebuild.
	rel, _ := db.Store().Relation("employee")
	if rows, used := rel.Lookup([]int{0}, []datum.D{datum.Int(101)}); !used || len(rows) != 1 {
		t.Error("pk index broken after delete")
	}
	// DELETE without WHERE empties the table.
	if _, err := db.Exec("DELETE FROM employee"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query("SELECT COUNT(*) FROM employee")
	if res.Rows[0][0].I != 0 {
		t.Errorf("count after full delete = %v", res.Rows[0][0])
	}
}

func TestDeleteNullPredicateRows(t *testing.T) {
	db := newDB(t)
	// UNKNOWN predicate must not delete (grace has NULL workdept).
	n, err := db.Exec("DELETE FROM employee WHERE workdept > 0")
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("deleted %d; want 6 (grace survives on UNKNOWN)", n)
	}
}

func TestUpdateRows(t *testing.T) {
	db := newDB(t)
	n, err := db.Exec("UPDATE employee SET salary = salary * 2, empname = UPPER(empname) WHERE workdept = 1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("updated %d; want 2", n)
	}
	res, err := db.Query("SELECT empname, salary FROM employee WHERE empno = 101")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAsStrings(res); got[0] != "ALICE|2000" {
		t.Errorf("row = %v", got)
	}
	// SET expressions see the OLD row: swap-style update is consistent.
	if _, err := db.Exec("UPDATE employee SET workdept = empno, empno = workdept WHERE empno = 201"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query("SELECT workdept FROM employee WHERE empno = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 201 {
		t.Errorf("swap update: %v", res.Rows)
	}
}

func TestUpdateErrors(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec("UPDATE employee SET nosuch = 1"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := db.Exec("UPDATE employee SET salary = 'text'"); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := db.Exec("UPDATE nosuch SET a = 1"); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := db.Exec("DELETE FROM employee WHERE salary > (SELECT AVG(salary) FROM employee)"); err == nil {
		t.Error("subquery in DELETE accepted")
	}
	// Failed UPDATE must not corrupt the table.
	res, _ := db.Query("SELECT COUNT(*) FROM employee")
	if res.Rows[0][0].I != 7 {
		t.Errorf("table corrupted after failed DML: %v", res.Rows[0][0])
	}
}

func TestUpdateInvalidatesStatistics(t *testing.T) {
	db := newDB(t)
	if _, err := db.Query("SELECT 1"); err != nil { // trigger analyze
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM employee WHERE workdept = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT 1"); err != nil { // re-analyze
		t.Fatal(err)
	}
	emp, _ := db.Catalog().Table("employee")
	if emp.RowCount != 4 {
		t.Errorf("stats not refreshed: RowCount = %d", emp.RowCount)
	}
}

func TestOrderByOverUnion(t *testing.T) {
	db := newDB(t)
	res, err := db.Query("SELECT deptno FROM department UNION SELECT workdept FROM employee WHERE workdept IS NOT NULL ORDER BY deptno DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != 2 || got[0] != "3" || got[1] != "2" {
		t.Errorf("rows = %v", got)
	}
	// Ordinal form.
	res, err = db.Query("SELECT deptno FROM department UNION SELECT workdept FROM employee WHERE workdept IS NOT NULL ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAsStrings(res); got[0] != "1" {
		t.Errorf("rows = %v", got)
	}
}

func TestDistinctOrderByHiddenColumnRejected(t *testing.T) {
	db := newDB(t)
	_, err := db.Query("SELECT DISTINCT empname FROM employee ORDER BY salary")
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("want DISTINCT/ORDER BY error, got %v", err)
	}
	// Ordering by a selected column stays fine.
	if _, err := db.Query("SELECT DISTINCT empname FROM employee ORDER BY empname"); err != nil {
		t.Errorf("selected-column order rejected: %v", err)
	}
}

// TestEmptyTables: every strategy must handle empty relations (empty magic
// sets, empty fixpoints, aggregates over nothing).
func TestEmptyTables(t *testing.T) {
	db := New()
	if _, err := db.Exec(paperDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE VIEW tc (a, b) AS
		SELECT empno, workdept FROM employee
		UNION SELECT t.a, e.workdept FROM tc t, employee e WHERE t.b = e.empno`); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s WHERE d.deptno = s.workdept",
		"SELECT COUNT(*), SUM(salary) FROM employee",
		"SELECT workdept, COUNT(*) FROM employee GROUP BY workdept",
		"SELECT a FROM tc WHERE a = 1",
		"SELECT empname FROM employee WHERE workdept IN (SELECT deptno FROM department)",
	}
	for _, q := range queries {
		for _, s := range []Strategy{Original, Correlated, EMST} {
			res, err := db.QueryWith(q, s)
			if err != nil {
				t.Fatalf("%v %q: %v", s, q, err)
			}
			_ = res
		}
	}
	// Scalar aggregate over empty input still yields one row.
	res, err := db.Query("SELECT COUNT(*), SUM(salary) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", rowsAsStrings(res))
	}
}

// TestDistinctAggregateThroughMagic: COUNT(DISTINCT x) inside a view that
// magic restricts.
func TestDistinctAggregateThroughMagic(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`CREATE VIEW salProfile (workdept, distinctSalaries) AS
		SELECT workdept, COUNT(DISTINCT salary) FROM employee GROUPBY workdept`); err != nil {
		t.Fatal(err)
	}
	q := "SELECT d.deptname, v.distinctSalaries FROM department d, salProfile v WHERE d.deptno = v.workdept AND d.deptname = 'Dev'"
	want := ""
	for i, s := range []Strategy{Original, Correlated, EMST} {
		res, err := db.QueryWith(q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := canonical(res)
		if i == 0 {
			want = got
			if got != "Dev|3" {
				t.Fatalf("rows = %v", rowsAsStrings(res))
			}
		} else if got != want {
			t.Errorf("%v disagrees: %s vs %s", s, got, want)
		}
	}
}

func TestInnerJoinSyntaxEndToEnd(t *testing.T) {
	db := newDB(t)
	res, err := db.Query(`SELECT e.empname, d.deptname
		FROM employee e JOIN department d ON e.workdept = d.deptno
		WHERE d.deptname = 'Dev' ORDER BY e.empname`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if len(got) != 3 || got[0] != "carol|Dev" {
		t.Errorf("rows = %v", got)
	}
	// JOIN over a view goes through the magic pipeline like comma joins.
	res, err = db.QueryWith(`SELECT d.deptname, s.avgsalary
		FROM department d JOIN avgMgrSal s ON d.deptno = s.workdept
		WHERE d.deptname = 'Planning'`, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].F != 1000 {
		t.Errorf("rows = %v", rowsAsStrings(res))
	}
}
