package starmagic_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"starmagic"
)

func openPaperDB(t *testing.T) *starmagic.DB {
	t.Helper()
	db := starmagic.Open()
	if _, err := db.Exec(`
	CREATE TABLE department (deptno INT, deptname VARCHAR(30), mgrno INT, PRIMARY KEY (deptno));
	CREATE TABLE employee (empno INT, empname VARCHAR(30), workdept INT, salary FLOAT, PRIMARY KEY (empno));
	CREATE VIEW mgrSal (empno, empname, workdept, salary) AS
	  SELECT e.empno, e.empname, e.workdept, e.salary
	  FROM employee e, department d WHERE e.empno = d.mgrno;
	CREATE VIEW avgMgrSal (workdept, avgsalary) AS
	  SELECT workdept, AVG(salary) FROM mgrSal GROUPBY workdept;
	INSERT INTO department VALUES (1, 'Planning', 101), (2, 'Dev', 201);
	INSERT INTO employee VALUES (101, 'alice', 1, 1000), (102, 'bob', 1, 500),
	  (201, 'carol', 2, 800), (202, 'dan', 2, 600);
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIQueryD(t *testing.T) {
	db := openPaperDB(t)
	const queryD = `SELECT d.deptname, s.workdept, s.avgsalary
		FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	for _, s := range []starmagic.Strategy{
		starmagic.StrategyOriginal, starmagic.StrategyCorrelated, starmagic.StrategyEMST,
	} {
		res, err := db.QueryContext(context.Background(), queryD, starmagic.WithStrategy(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%v: %d rows", s, len(res.Rows))
		}
		row := res.Rows[0]
		if row[0].Format() != "Planning" || row[1].Format() != "1" || row[2].Format() != "1000" {
			t.Errorf("%v: row = %v", s, row)
		}
	}
}

func TestPublicAPIValueConstructors(t *testing.T) {
	db := openPaperDB(t)
	if err := db.InsertRows("employee", []starmagic.Row{
		{starmagic.Int(301), starmagic.String("eve"), starmagic.Int(2), starmagic.Float(999)},
		{starmagic.Int(302), starmagic.String("mallory"), starmagic.Null(), starmagic.Null()},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryContext(context.Background(), "SELECT COUNT(*), COUNT(workdept) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 6 || res.Rows[0][1].I != 5 {
		t.Errorf("counts = %v", res.Rows[0])
	}
}

func TestPublicAPIExplain(t *testing.T) {
	db := openPaperDB(t)
	info, err := db.ExplainContext(context.Background(), "SELECT workdept, avgsalary FROM avgMgrSal WHERE workdept = 1",
		starmagic.WithStrategy(starmagic.StrategyEMST))
	if err != nil {
		t.Fatal(err)
	}
	out := info.String()
	if !strings.Contains(out, "phase2") || !strings.Contains(out, "cost") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestPublicAPIPrepare(t *testing.T) {
	db := openPaperDB(t)
	p, err := db.PrepareContext(context.Background(), "SELECT AVG(salary) FROM employee WHERE workdept = 1",
		starmagic.WithStrategy(starmagic.StrategyEMST))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].F != 750 {
			t.Errorf("avg = %v", res.Rows[0][0])
		}
	}
}

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic on bad SQL")
		}
	}()
	starmagic.Open().MustExec("CREATE GARBAGE")
}

func TestParseStrategyPublic(t *testing.T) {
	s, err := starmagic.ParseStrategy("magic")
	if err != nil || s != starmagic.StrategyEMST {
		t.Errorf("ParseStrategy = %v, %v", s, err)
	}
}

// TestPublicAPIQueryContext exercises the context API surface end to end:
// options, tracing, structured explain, and the metrics snapshot.
func TestPublicAPIQueryContext(t *testing.T) {
	db := openPaperDB(t)
	ctx := context.Background()
	const queryD = `SELECT d.deptname, s.workdept, s.avgsalary
		FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`

	rec := starmagic.NewRecorder()
	res, err := db.QueryContext(ctx, queryD,
		starmagic.WithStrategy(starmagic.StrategyEMST),
		starmagic.WithTracer(rec),
		starmagic.WithRowLimit(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Planning" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, ok := rec.Span("execute"); !ok {
		t.Errorf("no execute span; spans = %v", rec.Spans())
	}

	info, err := db.ExplainContext(ctx, queryD)
	if err != nil {
		t.Fatal(err)
	}
	if info.RuleFires("emst") == 0 {
		t.Error("explain reports no magic fires for query D")
	}
	if !strings.Contains(info.String(), "cost before EMST") {
		t.Error("explain text lost the cost comparison")
	}

	m := db.Metrics()
	if m.Queries != 1 || m.Plans != 2 {
		t.Errorf("metrics queries=%d plans=%d; want 1, 2", m.Queries, m.Plans)
	}
	db.ResetMetrics()
	if m = db.Metrics(); m.Queries != 0 {
		t.Errorf("after reset queries = %d", m.Queries)
	}

	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.QueryContext(ctx2, queryD); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v", err)
	}
}

// ExampleOpen demonstrates the quickest possible use of the engine.
func ExampleOpen() {
	db := starmagic.Open()
	db.MustExec(`
	CREATE TABLE parts (pno INT, pname VARCHAR(20), weight FLOAT, PRIMARY KEY (pno));
	INSERT INTO parts VALUES (1, 'bolt', 0.1), (2, 'nut', 0.05), (3, 'plate', 2.5);
	`)
	res, err := db.QueryContext(context.Background(), "SELECT pname FROM parts WHERE weight < 1 ORDER BY pname")
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0].Format())
	}
	// Output:
	// bolt
	// nut
}

// ExampleWithStrategy shows strategy selection — the three columns of the
// paper's Table 1.
func ExampleWithStrategy() {
	db := starmagic.Open()
	db.MustExec(`
	CREATE TABLE t (a INT, PRIMARY KEY (a));
	CREATE VIEW doubled (a2) AS SELECT a * 2 FROM t;
	INSERT INTO t VALUES (1), (2), (3);
	`)
	res, _ := db.QueryContext(context.Background(), "SELECT a2 FROM doubled WHERE a2 = 4",
		starmagic.WithStrategy(starmagic.StrategyEMST))
	fmt.Println(len(res.Rows), res.Rows[0][0].Format())
	// Output: 1 4
}
