// Package testutil provides the shared test fixture: the paper's
// employee/department schema (Example 1.1) with its mgrSal/avgMgrSal views,
// loaded at a configurable scale, plus helpers to build and evaluate QGM
// graphs, and the naive reference evaluator (Reference) that tests check
// the engine's answers against. Tests across core, engine and the
// benchmark harness use it.
package testutil

import (
	"fmt"
	"sort"
	"strings"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
)

// DB bundles a catalog and its storage.
type DB struct {
	Cat   *catalog.Catalog
	Store *storage.Store
}

// PaperSchema creates the paper's schema: department(deptno, deptname,
// mgrno), employee(empno, empname, workdept, salary), and the views mgrSal
// and avgMgrSal of Example 1.1.
func PaperSchema() (*DB, error) {
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
		return nil, err
	}
	if err := cat.AddTable(emp); err != nil {
		return nil, err
	}
	views := []*catalog.View{
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
			Name:    "avgSal",
			Columns: []string{"workdept", "avgsalary"},
			SQL:     "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
		},
	}
	for _, v := range views {
		if err := cat.AddView(v); err != nil {
			return nil, err
		}
	}
	store := storage.NewStore()
	store.Create(dept)
	store.Create(emp)
	return &DB{Cat: cat, Store: store}, nil
}

// LoadPaperData populates the schema with deterministic synthetic data:
// nDepts departments (deptno 1..nDepts, every 10th named 'Planning<no>',
// dept 1 named exactly 'Planning'), and empsPerDept employees per
// department. The manager of department d is its first employee. Employee
// salaries cycle deterministically; one employee in ~50 has a NULL
// workdept and departments divisible by 17 have a NULL manager.
func (db *DB) LoadPaperData(nDepts, empsPerDept int) error {
	dr, _ := db.Store.Relation("department")
	er, _ := db.Store.Relation("employee")
	empno := 0
	for d := 1; d <= nDepts; d++ {
		name := fmt.Sprintf("Dept%03d", d)
		if d == 1 {
			name = "Planning"
		} else if d%10 == 0 {
			name = fmt.Sprintf("Planning%03d", d)
		}
		mgr := datum.Int(int64(d*10000 + 1))
		if d%17 == 0 {
			mgr = datum.Null()
		}
		if err := dr.Insert(datum.Row{datum.Int(int64(d)), datum.String(name), mgr}); err != nil {
			return err
		}
		for i := 1; i <= empsPerDept; i++ {
			empno++
			eno := int64(d*10000 + i)
			wd := datum.Int(int64(d))
			if empno%50 == 0 {
				wd = datum.Null()
			}
			salary := float64(300 + (eno*37)%1700)
			row := datum.Row{
				datum.Int(eno),
				datum.String(fmt.Sprintf("emp%06d", eno)),
				wd,
				datum.Float(salary),
			}
			if err := er.Insert(row); err != nil {
				return err
			}
		}
	}
	db.Analyze()
	return nil
}

// Analyze refreshes optimizer statistics for all tables.
func (db *DB) Analyze() {
	for _, t := range db.Cat.Tables() {
		if rel, ok := db.Store.Relation(t.Name); ok {
			catalog.AnalyzeTable(t, rel.Rows())
		}
	}
}

// Build parses and binds a query into a QGM graph.
func (db *DB) Build(query string) (*qgm.Graph, error) {
	q, err := sql.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return semant.NewBuilder(db.Cat).Build(q)
}

// Eval lowers and runs a graph and renders rows as sorted strings for
// order-insensitive comparison. It returns the evaluator for counter
// inspection.
func (db *DB) Eval(g *qgm.Graph) ([]string, *exec.Evaluator, error) {
	ev := exec.New(db.Store)
	rows, _, err := ev.EvalPlan(plan.Lower(g))
	if err != nil {
		return nil, nil, err
	}
	return RenderRows(rows), ev, nil
}

// RenderRows formats rows as sorted pipe-joined strings.
func RenderRows(rows []datum.Row) []string {
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

// QueryD is the paper's running example (statement D0 over the views).
const QueryD = `SELECT d.deptname, s.workdept, s.avgsalary
FROM department d, avgMgrSal s
WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
