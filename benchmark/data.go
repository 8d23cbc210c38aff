package main

// The benchmark owns its schema, data and query texts. They started as a
// copy of internal/bench (the paper's Table-1 reconstruction) and are frozen
// here so that a later change to internal/bench cannot move a workload. The
// data is the same on every run; --seed shapes only the operation lists.

import (
	"fmt"
	"math/rand"
	"strings"

	"starmagic/internal/datum"
	"starmagic/internal/engine"
)

// Sizes of the Table-1 scale-1 database and of the recursion graph.
const (
	departments   = 150
	empsPerDept   = 40  // 6 000 employees
	salesPerDept  = 150 // 22 500 sales (indexed on deptno)
	ordersPerDept = 150 // 22 500 orders (no index on deptno)
	regions       = 10

	// The recursion graph is tcChains disjoint chains of tcChainLen nodes:
	// the full closure has tcChains*tcChainLen*(tcChainLen-1)/2 = 1 980
	// pairs while one source reaches at most tcChainLen-1 nodes. It is this
	// small because the magic plan still rescans every edge in every
	// fixpoint round: cost grows with edges x rounds, not with the answer
	// (400 chains of 25 cost 270 ms per lookup at this commit).
	tcChains   = 30
	tcChainLen = 12
	tcStride   = 1000 // node id = chain*tcStride + position

	dataSeed = 1994
)

const schemaSQL = `
CREATE TABLE department (
  deptno INT, deptname VARCHAR(30), mgrno INT, region VARCHAR(10),
  PRIMARY KEY (deptno));
CREATE TABLE employee (
  empno INT, empname VARCHAR(30), workdept INT, salary FLOAT, jobcode INT,
  PRIMARY KEY (empno));
CREATE INDEX emp_dept ON employee (workdept);
CREATE TABLE sales (
  saleid INT, deptno INT, amount FLOAT, yr INT,
  PRIMARY KEY (saleid));
CREATE INDEX sales_dept ON sales (deptno);
CREATE TABLE orders (
  orderid INT, deptno INT, amount FLOAT,
  PRIMARY KEY (orderid));
CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
CREATE INDEX edge_src ON edge (src);

CREATE VIEW avgSalary (workdept, avgsal, headcount) AS
  SELECT workdept, AVG(salary), COUNT(*) FROM employee GROUPBY workdept;
CREATE VIEW deptSales (deptno, total, cnt) AS
  SELECT deptno, SUM(amount), COUNT(*) FROM sales GROUPBY deptno;
CREATE VIEW deptAvgSales (deptno, avgamount) AS
  SELECT deptno, AVG(amount) FROM sales GROUPBY deptno;
CREATE VIEW deptOrders (deptno, total) AS
  SELECT deptno, SUM(amount) FROM orders GROUPBY deptno;
CREATE VIEW deptOrdersJ (deptno, total) AS
  SELECT o.deptno, SUM(o.amount)
  FROM orders o, department d WHERE o.deptno = d.deptno
  GROUPBY o.deptno;
CREATE VIEW regionPay (region, totalsal) AS
  SELECT d.region, SUM(v.avgsal)
  FROM department d, employee e, avgSalary v
  WHERE e.workdept = d.deptno AND e.jobcode < 2 AND e.workdept = v.workdept
  GROUPBY d.region;
CREATE VIEW tc (src, dst) AS
  SELECT src, dst FROM edge
  UNION
  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
`

// tables lists the base tables in load order.
var tables = []string{"department", "employee", "sales", "orders", "edge"}

// dataset is the generated rows of every base table.
type dataset struct {
	// rows is dropped once the system under test is loaded (release).
	rows map[string][]datum.Row
	// emp indexes employee rows by empno: the ground truth point lookups
	// are checked against.
	emp map[int64]datum.Row
}

func deptName(d int) string {
	if d == 7 {
		return "Planning"
	}
	return fmt.Sprintf("Dept-%03d", d)
}

func regionName(r int) string { return fmt.Sprintf("R%02d", r) }

// generate builds the dataset. Amounts are multiples of 0.25 and salaries
// multiples of empsPerDept, so every SUM — and avgSalary's AVG, which
// regionPay sums again — is exact in float64 whatever order an executor adds
// in: a frozen answer digest stays valid when aggregation is reordered.
func generate() *dataset {
	rng := rand.New(rand.NewSource(dataSeed))
	ds := &dataset{rows: map[string][]datum.Row{}, emp: map[int64]datum.Row{}}
	for d := 1; d <= departments; d++ {
		ds.rows["department"] = append(ds.rows["department"], datum.Row{
			datum.Int(int64(d)),
			datum.String(deptName(d)),
			datum.Int(int64(d*1000 + 1)),
			datum.String(regionName((d - 1) % regions)),
		})
	}
	for d := 1; d <= departments; d++ {
		for i := 1; i <= empsPerDept; i++ {
			empno := int64(d*1000 + i)
			row := datum.Row{
				datum.Int(empno),
				datum.String(fmt.Sprintf("emp%07d", empno)),
				datum.Int(int64(d)),
				datum.Float(20000 + float64(empsPerDept*rng.Intn(2000))),
				datum.Int(int64(rng.Intn(20))),
			}
			ds.rows["employee"] = append(ds.rows["employee"], row)
			ds.emp[empno] = row
		}
	}
	id := int64(0)
	for d := 1; d <= departments; d++ {
		for i := 0; i < salesPerDept; i++ {
			id++
			ds.rows["sales"] = append(ds.rows["sales"], datum.Row{
				datum.Int(id),
				datum.Int(int64(d)),
				datum.Float(float64(rng.Intn(40000)) / 4),
				datum.Int(int64(1990 + rng.Intn(5))),
			})
		}
	}
	id = 0
	for d := 1; d <= departments; d++ {
		for i := 0; i < ordersPerDept; i++ {
			id++
			ds.rows["orders"] = append(ds.rows["orders"], datum.Row{
				datum.Int(id),
				datum.Int(int64(d)),
				datum.Float(float64(rng.Intn(40000)) / 4),
			})
		}
	}
	for c := 0; c < tcChains; c++ {
		for i := 0; i < tcChainLen-1; i++ {
			ds.rows["edge"] = append(ds.rows["edge"], datum.Row{
				datum.Int(int64(c*tcStride + i)),
				datum.Int(int64(c*tcStride + i + 1)),
			})
		}
	}
	return ds
}

// release drops the generated rows, keeping the employee index. A harness
// that held a second copy of the data while measuring would add a third to
// the heap the collector marks, in the process of the embedded workloads.
func (ds *dataset) release() { ds.rows = nil }

// load creates the schema in db, bulk-loads the dataset and ANALYZEs.
func (ds *dataset) load(db *engine.Database) error {
	if _, err := db.Exec(schemaSQL); err != nil {
		return fmt.Errorf("schema: %w", err)
	}
	for _, t := range tables {
		if err := db.InsertRows(t, ds.rows[t]); err != nil {
			return fmt.Errorf("load %s: %w", t, err)
		}
	}
	db.Analyze()
	return nil
}

// initScript renders schema and data as the SQL script magicserver loads
// with -init. Rows go in multi-row INSERTs: every statement of the script is
// one durable commit, so single-row INSERTs would cost 60 000 fsyncs.
func (ds *dataset) initScript() string {
	const rowsPerInsert = 1000
	var sb strings.Builder
	sb.WriteString(schemaSQL)
	for _, t := range tables {
		for i, row := range ds.rows[t] {
			switch {
			case i%rowsPerInsert == 0 && i > 0:
				sb.WriteString(";\nINSERT INTO " + t + " VALUES ")
			case i == 0:
				sb.WriteString("INSERT INTO " + t + " VALUES ")
			default:
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, d := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(sqlLiteral(d))
			}
			sb.WriteByte(')')
		}
		sb.WriteString(";\n")
	}
	return sb.String()
}

// sqlLiteral renders a value as SQL text. A FLOAT keeps a decimal point so
// the parser does not read it back as an INT.
func sqlLiteral(d datum.D) string {
	switch d.T {
	case datum.TString:
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	case datum.TFloat:
		s := d.Format()
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	}
	return d.Format()
}
