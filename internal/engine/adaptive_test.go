package engine

// Oracle tests for adaptive statistics: (1) on a skewed (Zipf-like) Table-1
// instance, equi-depth histograms flip the §3.2 magic/no-magic choice that a
// flat uniform-assumption baseline gets wrong — confirmed at runtime by
// executing both plans and comparing the work they do; (2) a
// correlated-predicate misestimate (q-error > 8x) is reported on every
// execution while the cached plan stays fixed.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"starmagic/internal/exec"
)

// skewDDL is the paper's department/employee/avgMgrSal schema.
const skewDDL = `
CREATE TABLE department (deptno INT, deptname VARCHAR(30), mgrno INT, PRIMARY KEY (deptno));
CREATE TABLE employee (empno INT, empname VARCHAR(30), workdept INT, salary FLOAT, PRIMARY KEY (empno));
CREATE INDEX emp_workdept ON employee (workdept);
CREATE VIEW mgrSal (empno, empname, workdept, salary) AS
  SELECT e.empno, e.empname, e.workdept, e.salary
  FROM employee e, department d WHERE e.empno = d.mgrno;
CREATE VIEW avgMgrSal (workdept, avgsalary) AS
  SELECT workdept, AVG(salary) FROM mgrSal GROUPBY workdept;
`

const (
	skewDepts    = 400 // department rows
	skewHeavy    = 380 // of which deptname = 'HQ' (95%: the Zipf head)
	skewEmpPerDp = 8   // employees per department
)

// newSkewDB builds a Table-1 instance whose deptname distribution is heavily
// skewed: 95% of departments share the name 'HQ', the rest are distinct (a
// two-point Zipf). Uniform statistics see NDV=21 and estimate deptname='HQ'
// at ~5% selectivity; the histogram sees the heavy value at 95%.
func newSkewDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(skewDDL); err != nil {
		t.Fatal(err)
	}
	var dept, emp strings.Builder
	dept.WriteString("INSERT INTO department VALUES ")
	emp.WriteString("INSERT INTO employee VALUES ")
	empno := 0
	for d := 1; d <= skewDepts; d++ {
		name := "HQ"
		if d > skewHeavy {
			name = fmt.Sprintf("D%03d", d)
		}
		if d > 1 {
			dept.WriteString(", ")
		}
		// The first employee of each department is its manager.
		fmt.Fprintf(&dept, "(%d, '%s', %d)", d, name, empno+1)
		for e := 0; e < skewEmpPerDp; e++ {
			empno++
			if empno > 1 {
				emp.WriteString(", ")
			}
			fmt.Fprintf(&emp, "(%d, 'e%d', %d, %d)", empno, empno, d, 100*(1+empno%9))
		}
	}
	for _, stmt := range []string{dept.String(), emp.String()} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// execWork sums the executor counters that measure how much a run computed.
func execWork(c exec.Counters) int64 {
	return c.BaseRows + c.BoxEvals + c.HashBuilds + c.HashProbes + c.IndexLookups
}

// TestHistogramsFlipMagicChoice is the skew oracle: on the heavy value the
// flat baseline underestimates the binding set ~20x and picks the magic
// plan; the histogram sees 95% selectivity and keeps the untransformed plan.
// Executing both confirms the histogram choice does strictly less work for
// identical results — i.e. the flat baseline provably picks the slower plan.
func TestHistogramsFlipMagicChoice(t *testing.T) {
	const query = `SELECT d.deptno, s.avgsalary
		FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'HQ'`
	ctx := context.Background()

	db := newSkewDB(t)
	withHist, err := db.PrepareContext(ctx, query, WithStrategy(EMST))
	if err != nil {
		t.Fatal(err)
	}
	if withHist.Explain().UsedEMST {
		t.Fatalf("histogram estimates picked the magic plan for a 95%% binding set (cost %0.f -> %0.f)",
			withHist.Explain().CostBefore, withHist.Explain().CostAfter)
	}

	flat := newSkewDB(t)
	flat.SetHistograms(false)
	withFlat, err := flat.PrepareContext(ctx, query, WithStrategy(EMST))
	if err != nil {
		t.Fatal(err)
	}
	if !withFlat.Explain().UsedEMST {
		t.Fatalf("flat estimates kept the untransformed plan (cost %0.f -> %0.f): skew not misestimated",
			withFlat.Explain().CostBefore, withFlat.Explain().CostAfter)
	}

	// Runtime confirmation on one database: the plan the histogram picked
	// versus the plan the flat baseline would have run (forced magic).
	histRes, err := withHist.ExecuteContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	forcedRes, err := db.QueryContext(ctx, query, WithStrategy(EMST), WithForceEMST())
	if err != nil {
		t.Fatal(err)
	}
	histRows, forcedRows := rowsAsStrings(histRes), rowsAsStrings(forcedRes)
	sort.Strings(histRows)
	sort.Strings(forcedRows)
	if len(histRows) != skewHeavy {
		t.Fatalf("got %d rows, want %d", len(histRows), skewHeavy)
	}
	if strings.Join(histRows, "\n") != strings.Join(forcedRows, "\n") {
		t.Fatal("magic and untransformed plans disagree on results")
	}
	histWork, forcedWork := execWork(histRes.Plan.Counters), execWork(forcedRes.Plan.Counters)
	if histWork >= forcedWork {
		t.Errorf("histogram pick did %d work units, forced magic %d: choice not confirmed faster",
			histWork, forcedWork)
	}
}

// TestMisestimateReportedNotActedOn: a conjunction over two perfectly
// correlated columns is underestimated ~20x by independence (even with exact
// histograms). Every execution reports the q-error > 8x in PlanInfo, and the
// cached plan still holds still: the next prepare is a plain hit serving the
// same physical plan and identical rows.
func TestMisestimateReportedNotActedOn(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE t (id INT, a INT, b INT, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	const rows, groups = 2000, 20
	for i := 0; i < rows; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, %d)", i, i%groups, i%groups) // a = b always
	}
	if _, err := db.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}

	const query = "SELECT t.id FROM t WHERE t.a = 5 AND t.b = 5"
	ctx := context.Background()

	p1, err := db.PrepareContext(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.Explain().CacheStatus; got != "miss" {
		t.Fatalf("first prepare = %q, want miss", got)
	}
	res1, err := p1.ExecuteContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != rows/groups {
		t.Fatalf("got %d rows, want %d", len(res1.Rows), rows/groups)
	}
	// Independence multiplies two ~5% selectivities: ~5 rows estimated
	// against 100 actual, q-error ~20x.
	if res1.Plan.MaxQError <= 8 {
		t.Fatalf("first run MaxQError = %.1f, want > 8 (misestimate not observed)", res1.Plan.MaxQError)
	}

	// The misestimate is reported, not acted on: the next prepare is a plain
	// hit on the same plan, which still misestimates.
	p2, err := db.PrepareContext(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Explain().CacheStatus; got != "hit" {
		t.Fatalf("second prepare = %q, want hit", got)
	}
	if p1.Explain().Physical != p2.Explain().Physical {
		t.Fatalf("cached plan changed:\n%s\nvs\n%s", p1.Explain().Physical, p2.Explain().Physical)
	}
	res2, err := p2.ExecuteContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := rowsAsStrings(res1), rowsAsStrings(res2)
	sort.Strings(r1)
	sort.Strings(r2)
	if strings.Join(r1, "\n") != strings.Join(r2, "\n") {
		t.Fatal("second execution changed the result")
	}
	if res2.Plan.MaxQError <= 8 {
		t.Errorf("second run MaxQError = %.1f, want > 8 (same plan, same misestimate)", res2.Plan.MaxQError)
	}
}
