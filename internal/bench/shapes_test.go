package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"starmagic/internal/engine"
	"starmagic/internal/exec"
	"starmagic/internal/plan"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/prepared_plans.golden from this code")

// preparedShape is one of the benchmark's prepared texts: the Table-1
// shapes with `?` placeholders and the point lookup PK. fixed is the
// binding the paper's literal text states (PK: one employee).
type preparedShape struct {
	id, query string
	fixed     []any
}

var preparedShapes = []preparedShape{
	{"A", `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
 WHERE d.deptno = v.workdept AND d.deptname = ? AND d.mgrno > ?`, []any{"Planning", int64(0)}},
	{"B", `SELECT e.empname, v.total FROM employee e, deptSales v
 WHERE e.workdept = v.deptno AND e.empno < ?`, []any{int64(1030)}},
	{"C", `SELECT d.deptname, v.total FROM department d, deptOrders v
 WHERE d.deptno = v.deptno AND d.deptno < ?`, []any{int64(7)}},
	{"D", `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
 WHERE d.deptno = v.deptno AND d.deptno <= ?`, []any{int64(120)}},
	{"E", `SELECT e.empname, v.total FROM employee e, deptSales v
 WHERE e.workdept = v.deptno AND (e.empno < ? OR e.empno > ?)`, []any{int64(1013), int64(149000)}},
	{"F", `SELECT d.deptname, v.headcount FROM department d, avgSalary v
 WHERE d.deptno = v.workdept AND d.deptno = ? AND d.mgrno > ?`, []any{int64(3), int64(0)}},
	{"G", `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
 WHERE d.deptno = v.deptno AND d.deptname = ? AND d.mgrno > ?`, []any{"Planning", int64(0)}},
	{"H", `SELECT v.region, v.totalsal FROM regionPay v
 WHERE v.region = ? AND v.totalsal > ?`, []any{"R03", int64(-1)}},
	{"PK", `SELECT empno, empname, workdept, salary, jobcode FROM employee WHERE empno = ?`, []any{int64(3005)}},
}

func shapeByID(id string) preparedShape {
	for _, sh := range preparedShapes {
		if sh.id == id {
			return sh
		}
	}
	panic("no prepared shape " + id)
}

var allStrategies = []engine.Strategy{engine.Original, engine.Correlated, engine.EMST}

// preparedPlans renders the prepare-time physical plan of every prepared
// shape under every strategy at DefaultConfig.
func preparedPlans(t *testing.T) string {
	t.Helper()
	db, err := NewDB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, sh := range preparedShapes {
		for _, s := range allStrategies {
			p, err := db.Prepare(sh.query, s)
			if err != nil {
				t.Fatalf("%s %v: %v", sh.id, s, err)
			}
			fmt.Fprintf(&sb, "=== %s %v\n%s\n", sh.id, s, p.Explain().Physical)
		}
	}
	return sb.String()
}

// TestPreparedPlanParity: the plan a `?` text is prepared with — what
// EXPLAIN shows and the benchmark's staged replay re-lowers at default
// selectivities — is the one the golden file holds for every prepared
// shape and strategy. Executions may run plans made for their bindings;
// the prepare-time plan does not move. Regenerate with -update only for a
// deliberate change of prepare-time planning.
func TestPreparedPlanParity(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark scale")
	}
	const golden = "testdata/prepared_plans.golden"
	got := preparedPlans(t)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("prepare-time plans differ from %s:\n%s", golden, got)
	}
}

// literalSQL writes the binding into the text in place of its `?`s.
func literalSQL(query string, args []any) string {
	var sb strings.Builder
	for _, a := range args {
		i := strings.IndexByte(query, '?')
		sb.WriteString(query[:i])
		switch v := a.(type) {
		case string:
			sb.WriteString("'" + strings.ReplaceAll(v, "'", "''") + "'")
		default:
			fmt.Fprint(&sb, v)
		}
		query = query[i+1:]
	}
	sb.WriteString(query)
	return sb.String()
}

// planText renders an operator report as its tree of operators and join
// methods, with the estimates when est is set, without run statistics.
func planText(ops []plan.OpReport, est bool) string {
	var sb strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&sb, "%s%s %s", strings.Repeat("  ", op.Depth), op.Label, op.Detail)
		if est {
			fmt.Fprintf(&sb, " (est %.0f)", op.EstRows)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPreparedPlansFollowBinding: a prepared `?` text executes the plan made
// for its binding. Prepared B, D and E run what their literal texts run —
// the same operator tree and the same counters, B's and E's magic plans
// among them — under every strategy; A, C, F, G, H and PK run the operator
// trees they were prepared with.
func TestPreparedPlansFollowBinding(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark scale")
	}
	db, err := NewDB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Literal B's magic plan, as TestIndexStagesColumnar pins it.
	wantB := exec.Counters{BaseRows: 6000, BoxEvals: 6, HashBuilds: 1, HashProbes: 29, IndexLookups: 1, OutputRows: 6210}
	for _, sh := range preparedShapes {
		for _, s := range allStrategies {
			name := fmt.Sprintf("%s%v %v", sh.id, sh.fixed, s)
			p, err := db.Prepare(sh.query, s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := p.Execute(sh.fixed...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := planText(res.Plan.Operators(), false)
			switch sh.id {
			case "B", "D", "E":
				lit, err := db.QueryWith(literalSQL(sh.query, sh.fixed), s)
				if err != nil {
					t.Fatalf("%s literal: %v", name, err)
				}
				if want := planText(lit.Plan.Operators(), false); got != want {
					t.Errorf("%s: operator tree\n%s\nliteral text's\n%s", name, got, want)
				}
				if res.Plan.Counters != lit.Plan.Counters || res.Plan.UsedEMST != lit.Plan.UsedEMST {
					t.Errorf("%s: counters %+v (EMST %v), literal text's %+v (EMST %v)", name,
						res.Plan.Counters, res.Plan.UsedEMST, lit.Plan.Counters, lit.Plan.UsedEMST)
				}
				if sh.id == "B" && s == engine.EMST && res.Plan.Counters != wantB {
					t.Errorf("%s: counters %+v, want %+v", name, res.Plan.Counters, wantB)
				}
			default:
				if want := planText(p.Explain().Operators, false); got != want {
					t.Errorf("%s: executed operator tree\n%s\nprepared\n%s", name, got, want)
				}
			}
		}
	}
}
