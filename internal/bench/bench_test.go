package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"starmagic/internal/datum"
	"starmagic/internal/engine"
	"starmagic/internal/exec"
)

// testConfig is a reduced size that keeps tests fast while preserving the
// regime ratios.
func testConfig() Config {
	return Config{Departments: 60, EmpsPerDept: 12, SalesPerDept: 50, OrdersPerDept: 50, Seed: 1994}
}

func benchDB(t *testing.T) *engine.Database {
	t.Helper()
	db, err := NewDB(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// work is the deterministic cost proxy used to validate Table 1 shapes
// without depending on wall-clock noise.
func work(m Measurement) int64 {
	c := m.Counters
	return c.BaseRows + c.OutputRows + c.HashProbes + c.IndexLookups
}

func measureAll(t *testing.T, db *engine.Database, e Experiment) map[engine.Strategy]Measurement {
	t.Helper()
	out := map[engine.Strategy]Measurement{}
	for _, s := range []engine.Strategy{engine.Original, engine.Correlated, engine.EMST} {
		m, err := Run(db, e, s, 1)
		if err != nil {
			t.Fatalf("exp %s %v: %v", e.ID, s, err)
		}
		out[s] = m
	}
	return out
}

func resultRows(t *testing.T, db *engine.Database, e Experiment, s engine.Strategy) []string {
	t.Helper()
	rows, _, _ := executeOnce(t, db, e, s)
	return rows
}

// executeOnce prepares e under s and runs it once, returning the sorted
// formatted rows, the execution's counters, and the bytes that execution
// alone allocated (tests in this package run on one goroutine, so the
// process-wide TotalAlloc delta is the query's).
func executeOnce(t *testing.T, db *engine.Database, e Experiment, s engine.Strategy) ([]string, exec.Counters, uint64) {
	t.Helper()
	p, err := db.Prepare(e.Query, s)
	if err != nil {
		t.Fatalf("exp %s %v: %v", e.ID, s, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := p.Execute()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("exp %s %v: %v", e.ID, s, err)
	}
	return sortedRows(res.Rows), res.Plan.Counters, after.TotalAlloc - before.TotalAlloc
}

// sortedRows formats rows as "|"-joined values, sorted.
func sortedRows(rows []datum.Row) []string {
	out := formatRows(rows)
	sort.Strings(out)
	return out
}

// formatRows formats rows as "|"-joined values, in order.
func formatRows(rows []datum.Row) []string {
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

// correlatedAllocCeiling bounds what one Correlated execution of the
// collapsing experiments may allocate at testConfig scale: a tenth of what
// the executor allocated (C 3.6 MB, D 36.6 MB) when every uncacheable join
// stage built a hash table over the whole child to probe it once per outer
// row. Without those builds C allocates ~70 KB and D ~1 MB.
var correlatedAllocCeiling = map[string]uint64{"C": 360 << 10, "D": 3600 << 10}

// TestExperimentsAgreeAcrossStrategies: Table 1 is only meaningful if all
// three strategies compute identical answers. Correlated (NoSubqueryCache)
// can cache no join hash table, so it must build none and stay under the
// allocation ceiling on the experiments where it re-evaluates the most.
func TestExperimentsAgreeAcrossStrategies(t *testing.T) {
	db := benchDB(t)
	for _, e := range Experiments() {
		want := resultRows(t, db, e, engine.Original)
		if len(want) == 0 {
			t.Errorf("exp %s returns no rows; weak experiment", e.ID)
		}
		for _, s := range []engine.Strategy{engine.Correlated, engine.EMST} {
			got, ctr, alloc := executeOnce(t, db, e, s)
			if strings.Join(got, ";") != strings.Join(want, ";") {
				t.Errorf("exp %s: %v disagrees with Original\ngot  %v\nwant %v", e.ID, s, got, want)
			}
			ceiling, bounded := correlatedAllocCeiling[e.ID]
			if s != engine.Correlated || !bounded {
				continue
			}
			if ctr.HashBuilds != 0 {
				t.Errorf("exp %s: Correlated built %d hash tables it cannot reuse", e.ID, ctr.HashBuilds)
			}
			if alloc > ceiling {
				t.Errorf("exp %s: one Correlated execution allocated %d bytes, ceiling %d", e.ID, alloc, ceiling)
			}
		}
	}
}

// smallAllocCeiling bounds what one EMST execution of the small Table-1
// experiments may allocate at DefaultConfig. Each is below what the
// executor allocated (A 20 952, F 18 976, G 21 000, H 65 512 bytes) when
// every execution built its per-operator report for the metrics, and far
// below what it allocated (A 44 952, F 34 688, G 49 088, H 95 936) when it
// also rendered its EXPLAIN ANALYZE text and every vectorized operator
// allocated its 512-row scratch, and an index stage a chain array the size
// of its table, at each open.
var smallAllocCeiling = map[string]uint64{"A": 18 << 10, "F": 16 << 10, "G": 18 << 10, "H": 62 << 10}

// preparedCAllocCeiling bounds one EMST execution of the benchmark's
// prepared C at DefaultConfig: its magic set drives a build over orders,
// whose table-sized chain array (90 KB) and driver-sized arrays came fresh
// at every open (121 440 bytes an execution) before they came from the
// pooled scratch (~26 KB).
const preparedCAllocCeiling = 32 << 10

// steadyAlloc returns the fewest bytes one of five EMST executions of e
// allocated: the first executions fill the executor's scratch pool.
func steadyAlloc(t *testing.T, db *engine.Database, e Experiment) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 5 {
		_, _, alloc := executeOnce(t, db, e, engine.EMST)
		least = min(least, alloc)
	}
	return least
}

// TestSmallPlanAllocation: executing a small cached plan costs what its rows
// cost. A, F, G and H stay under their ceilings, and A, F and G, whose
// magic set picks one department, allocate the same within 10 % with four
// times the departments, so four times the rows in every table; H is left
// out of that, since its region holds four times the departments. Prepared
// C, whose plan builds over the whole orders table, stays under its ceiling
// too.
func TestSmallPlanAllocation(t *testing.T) {
	db, err := NewDB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var db4 *engine.Database
	if !testing.Short() {
		cfg := DefaultConfig()
		cfg.Departments *= 4
		if db4, err = NewDB(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range Experiments() {
		ceiling, ok := smallAllocCeiling[e.ID]
		if !ok {
			continue
		}
		alloc := steadyAlloc(t, db, e)
		if alloc > ceiling {
			t.Errorf("exp %s: one EMST execution allocated %d bytes, ceiling %d", e.ID, alloc, ceiling)
		}
		if e.ID == "H" || db4 == nil {
			continue
		}
		if alloc4 := steadyAlloc(t, db4, e); float64(alloc4) > 1.1*float64(alloc) {
			t.Errorf("exp %s: %d bytes at 4x departments, %d at 1x", e.ID, alloc4, alloc)
		}
	}
	c := shapeByID("C")
	p, err := db.Prepare(c.query, engine.EMST)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := p.Execute(c.fixed...)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > preparedCAllocCeiling {
		t.Errorf("prepared C: one EMST execution allocated %d bytes, ceiling %d", least, preparedCAllocCeiling)
	}
}

// TestSmallPlansConcurrent: concurrent executions of the small EMST plans
// each take their own scratch from the executor's pool and return the rows
// a lone execution returns.
func TestSmallPlansConcurrent(t *testing.T) {
	db := benchDB(t)
	var prepared []*engine.Prepared
	var want []string
	for _, e := range Experiments() {
		if _, ok := smallAllocCeiling[e.ID]; !ok {
			continue
		}
		p, err := db.Prepare(e.Query, engine.EMST)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		prepared = append(prepared, p)
		want = append(want, strings.Join(formatRows(res.Rows), ";"))
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				k := (w + i) % len(prepared)
				res, err := prepared[k].Execute()
				if err != nil {
					t.Error(err)
					return
				}
				if got := strings.Join(formatRows(res.Rows), ";"); got != want[k] {
					t.Errorf("worker %d run %d: rows %s, want %s", w, i, got, want[k])
				}
			}
		}()
	}
	wg.Wait()
}

// TestPreparedPlansHoldStill: the §3.2 magic/no-magic choice is made once
// per plan. Re-preparing and re-executing a Table-1 text — literal, or a
// prepared shape at a fixed binding — on one database must serve the cached
// plan unchanged — one physical plan per (text, strategy), a cold miss once
// and hits afterwards — execute the same plan every round (the plan made
// for the binding's class, run statistics aside), and return identical rows.
func TestPreparedPlansHoldStill(t *testing.T) {
	const rounds = 30
	type text struct {
		id, query string
		args      []any
	}
	var texts []text
	for _, e := range Experiments() {
		texts = append(texts, text{e.ID, e.Query, nil})
	}
	for _, sh := range preparedShapes {
		texts = append(texts, text{sh.id + "?", sh.query, sh.fixed})
	}
	for _, cfg := range []Config{testConfig(), DefaultConfig()} {
		name := fmt.Sprintf("depts=%d", cfg.Departments)
		t.Run(name, func(t *testing.T) {
			if cfg == DefaultConfig() && testing.Short() {
				t.Skip("benchmark scale")
			}
			db, err := NewDB(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range texts {
				for _, s := range allStrategies {
					var prepared, executed, rows string
					for i := 1; i <= rounds; i++ {
						p, err := db.Prepare(e.query, s)
						if err != nil {
							t.Fatalf("exp %s %v: %v", e.id, s, err)
						}
						want := "hit"
						if i == 1 {
							want = "miss"
						}
						if got := p.Explain().CacheStatus; got != want {
							t.Errorf("exp %s %v round %d: cache status %q, want %q", e.id, s, i, got, want)
							break
						}
						res, err := p.Execute(e.args...)
						if err != nil {
							t.Fatalf("exp %s %v: %v", e.id, s, err)
						}
						got := sortedRows(res.Rows)
						ran := planText(res.Plan.Operators(), true)
						if i == 1 {
							prepared, executed, rows = p.Explain().Physical, ran, strings.Join(got, ";")
							continue
						}
						if p.Explain().Physical != prepared {
							t.Errorf("exp %s %v round %d: physical plan changed\n%s\nvs round 1\n%s",
								e.id, s, i, p.Explain().Physical, prepared)
							break
						}
						if ran != executed {
							t.Errorf("exp %s %v round %d: executed plan changed\n%s\nvs round 1\n%s", e.id, s, i, ran, executed)
							break
						}
						if strings.Join(got, ";") != rows {
							t.Errorf("exp %s %v round %d: rows changed", e.id, s, i)
							break
						}
					}
				}
			}
		})
	}
}

// TestMagicPipelinesColumnar: under EMST the magic-restricted pipelines of
// experiments C and D — literal, and prepared with the t1_large workload's
// texts — run on the columnar path. C's magic set keys the join table and
// orders streams through it, with exactly the counters of the row
// pipeline's build over orders. D's department stage, probed once per joined
// orders row, is one hash build instead of 18 000 index lookups. The rows are
// the row pipeline's, in order.
func TestMagicPipelinesColumnar(t *testing.T) {
	db, err := NewDB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exps := map[string]Experiment{}
	for _, e := range Experiments() {
		exps[e.ID] = e
	}
	cases := []struct {
		id, query string
		args      []any
	}{
		{"C", exps["C"].Query, nil},
		{"C", `SELECT d.deptname, v.total FROM department d, deptOrders v
		        WHERE d.deptno = v.deptno AND d.deptno < ?`, []any{int64(7)}},
		{"D", exps["D"].Query, nil},
		{"D", `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
		        WHERE d.deptno = v.deptno AND d.deptno <= ?`, []any{int64(120)}},
	}
	// C's counters on the row path, before its magic pipeline went columnar.
	wantC := exec.Counters{BaseRows: 22650, BoxEvals: 6, HashBuilds: 2, HashProbes: 12, OutputRows: 23568}
	for _, tc := range cases {
		name := fmt.Sprintf("%s%v", tc.id, tc.args)
		p, err := db.Prepare(tc.query, engine.EMST)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := p.Execute(tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vectorized := map[string]bool{}
		for _, op := range res.Plan.Operators() {
			vectorized[op.Label] = vectorized[op.Label] || op.Vectorized
		}
		for _, label := range []string{"select T3", "group-by GB4"} {
			if !vectorized[label] {
				t.Errorf("%s: %s not vectorized\n%s", name, label, res.Plan.Physical())
			}
		}
		switch {
		case tc.id == "C" && res.Plan.Counters != wantC:
			t.Errorf("%s: counters %+v, want %+v", name, res.Plan.Counters, wantC)
		case tc.id == "D" && res.Plan.Counters.IndexLookups != 0:
			t.Errorf("%s: %d index lookups\n%s", name, res.Plan.Counters.IndexLookups, res.Plan.Physical())
		case tc.id == "D" && res.Plan.UsedEMST && !strings.Contains(res.Plan.Physical(), "o:hash, d:hash]"):
			t.Errorf("%s: department stage is not a hash join\n%s", name, res.Plan.Physical())
		}
		db.SetVectorized(false)
		row, err := p.Execute(tc.args...)
		db.SetVectorized(true)
		if err != nil {
			t.Fatalf("%s (row path): %v", name, err)
		}
		if got, want := strings.Join(formatRows(row.Rows), ";"), strings.Join(formatRows(res.Rows), ";"); got != want {
			t.Errorf("%s: row path disagrees\nvec %s\nrow %s", name, want, got)
		}
	}
}

// TestIndexStagesColumnar: the default-selectivity plans of prepared B and
// E — an aggregate view driving 150 index lookups into employee, run here
// with the plan cache off, so no plan is made for the binding — run their
// index stage on the columnar path: each department's bucket is looked up once and
// filtered by column kernels. The counters are exactly the row pipeline's,
// and so are the rows, in order. The literal texts keep their counters too,
// and their magic-driven index stages go columnar whatever their size:
// literal E's (~1 400 rows) and literal B's (150); so do the plans prepared
// B and E run for those bindings. So do the small EMST plans of A, F, G and H, literal
// and with the benchmark's `?` texts: the magic join into the indexed view
// and the group-by above it, and H's two index stages into employee.
func TestIndexStagesColumnar(t *testing.T) {
	db, err := NewDB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exps := map[string]Experiment{}
	for _, e := range Experiments() {
		exps[e.ID] = e
	}
	magicJoin := map[string]bool{"select T3": true, "group-by GB4": true}
	regionJoins := map[string]bool{"select SM_T9#1": true, "select T4": true, "group-by GB5": true}
	const (
		preparedB = `SELECT e.empname, v.total FROM employee e, deptSales v
		        WHERE e.workdept = v.deptno AND e.empno < ?`
		preparedE = `SELECT e.empname, v.total FROM employee e, deptSales v
		        WHERE e.workdept = v.deptno AND (e.empno < ? OR e.empno > ?)`
	)
	literalB := exec.Counters{BaseRows: 6000, BoxEvals: 6, HashBuilds: 1, HashProbes: 29, IndexLookups: 1, OutputRows: 6210}
	literalE := exec.Counters{BaseRows: 6000, BoxEvals: 6, HashBuilds: 1, HashProbes: 92, IndexLookups: 3, OutputRows: 6640}
	cases := []struct {
		id, query string
		args      []any
		vec       map[string]bool // operators and whether they must run vectorized
		want      exec.Counters   // the row pipeline's; zero: not pinned
		// stale runs the Prepared with the plan cache off: its default plan.
		stale bool
	}{
		{"B", preparedB, []any{int64(1030)},
			map[string]bool{"select SEL1": true},
			exec.Counters{BaseRows: 22500, BoxEvals: 4, IndexLookups: 150, OutputRows: 45179}, true},
		{"E", preparedE, []any{int64(1013), int64(149000)},
			map[string]bool{"select SEL1": true},
			exec.Counters{BaseRows: 22500, BoxEvals: 4, IndexLookups: 150, OutputRows: 45242}, true},
		{"B", preparedB, []any{int64(1030)}, map[string]bool{"select T3": true}, literalB, false},
		{"E", preparedE, []any{int64(1013), int64(149000)}, map[string]bool{"select T3": true}, literalE, false},
		{"B", exps["B"].Query, nil, map[string]bool{"select T3": true}, literalB, false},
		{"E", exps["E"].Query, nil, map[string]bool{"select T3": true}, literalE, false},
		{"A", exps["A"].Query, nil, magicJoin, exec.Counters{}, false},
		{"A", `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
		        WHERE d.deptno = v.workdept AND d.deptname = ? AND d.mgrno > ?`, []any{"Planning", int64(0)},
			magicJoin, exec.Counters{}, false},
		{"F", exps["F"].Query, nil, magicJoin, exec.Counters{}, false},
		{"F", `SELECT d.deptname, v.headcount FROM department d, avgSalary v
		        WHERE d.deptno = v.workdept AND d.deptno = ? AND d.mgrno > ?`, []any{int64(3), int64(0)},
			magicJoin, exec.Counters{}, false},
		{"G", exps["G"].Query, nil, magicJoin, exec.Counters{}, false},
		{"G", `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
		        WHERE d.deptno = v.deptno AND d.deptname = ? AND d.mgrno > ?`, []any{"Planning", int64(0)},
			magicJoin, exec.Counters{}, false},
		{"H", exps["H"].Query, nil, regionJoins, exec.Counters{}, false},
		{"H", `SELECT v.region, v.totalsal FROM regionPay v
		        WHERE v.region = ? AND v.totalsal > ?`, []any{"R03", int64(-1)},
			regionJoins, exec.Counters{}, false},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s%v", tc.id, tc.args)
		p, err := db.Prepare(tc.query, engine.EMST)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.stale {
			db.SetPlanCache(false)
			name += " stale"
		}
		res, err := p.Execute(tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vectorized := map[string]bool{}
		for _, op := range res.Plan.Operators() {
			vectorized[op.Label] = vectorized[op.Label] || op.Vectorized
		}
		for label, want := range tc.vec {
			if vectorized[label] != want {
				t.Errorf("%s: %s vectorized = %v, want %v\n%s", name, label, vectorized[label], want, res.Plan.Physical())
			}
		}
		if tc.want != (exec.Counters{}) && res.Plan.Counters != tc.want {
			t.Errorf("%s: counters %+v, want %+v", name, res.Plan.Counters, tc.want)
		}
		db.SetVectorized(false)
		row, err := p.Execute(tc.args...)
		db.SetVectorized(true)
		if err != nil {
			t.Fatalf("%s (row path): %v", name, err)
		}
		if row.Plan.Counters != res.Plan.Counters {
			t.Errorf("%s: row path counters %+v, vectorized %+v", name, row.Plan.Counters, res.Plan.Counters)
		}
		if got, want := strings.Join(formatRows(row.Rows), ";"), strings.Join(formatRows(res.Rows), ";"); got != want {
			t.Errorf("%s: row path disagrees\nvec %s\nrow %s", name, want, got)
		}
		db.SetPlanCache(true)
	}
}

// TestPreparedShapesAgree prepares the benchmark's prepared texts once per
// strategy and executes each over its whole binding domain — every
// department and region for A, F, G and H, the workload's ranges for B, C, D
// and E, and one employee per department for PK — under all three
// strategies, vectorized and on the row path, and runs the same text with
// the binding written as literals, which has no per-binding plans. All must
// return the same bag of rows for every binding. Correlated D and E, whose
// executions take up to 0.4 s, run every tenth binding. No shape and
// strategy runs more distinct plans than a text keeps.
func TestPreparedShapesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark scale")
	}
	db, err := NewDB(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	depts, err := db.Query(`SELECT deptno, deptname, region FROM department`)
	if err != nil {
		t.Fatal(err)
	}
	var names, nos, regions, empnos []any
	seen := map[string]bool{}
	for _, r := range depts.Rows {
		nos = append(nos, r[0].I)
		names = append(names, r[1].S)
		empnos = append(empnos, r[0].I*1000+1)
		if !seen[r[2].S] {
			seen[r[2].S] = true
			regions = append(regions, r[2].S)
		}
	}
	span := func(lo, hi int64) []any {
		var out []any
		for k := lo; k <= hi; k++ {
			out = append(out, k)
		}
		return out
	}
	bind := func(vals []any, rest ...any) [][]any {
		var out [][]any
		for _, v := range vals {
			out = append(out, append([]any{v}, rest...))
		}
		return out
	}
	var eArgs [][]any
	for lo := int64(1005); lo <= 1025; lo++ {
		for hi := int64(148990); hi <= 149010; hi++ {
			eArgs = append(eArgs, []any{lo, hi})
		}
	}
	domain := map[string][][]any{
		"A": bind(names, int64(0)), "F": bind(nos, int64(0)), "G": bind(names, int64(0)),
		"H": bind(regions, int64(-1)), "B": bind(span(1010, 1040)), "C": bind(span(4, 10)),
		"D": bind(span(100, 140)), "E": eArgs, "PK": bind(empnos),
	}
	for _, sh := range preparedShapes {
		prepared := map[engine.Strategy]*engine.Prepared{}
		plans := map[engine.Strategy]map[string]bool{}
		for _, s := range allStrategies {
			p, err := db.Prepare(sh.query, s)
			if err != nil {
				t.Fatalf("%s %v: %v", sh.id, s, err)
			}
			prepared[s], plans[s] = p, map[string]bool{}
		}
		for i, args := range domain[sh.id] {
			var want string
			haveWant := false
			for _, s := range allStrategies {
				if s == engine.Correlated && (sh.id == "D" || sh.id == "E") && i%10 != 0 {
					continue
				}
				for _, vec := range []bool{true, false} {
					db.SetVectorized(vec)
					res, err := prepared[s].Execute(args...)
					db.SetVectorized(true)
					if err != nil {
						t.Fatalf("%s%v %v: %v", sh.id, args, s, err)
					}
					plans[s][planText(res.Plan.Operators(), true)] = true
					got := strings.Join(sortedRows(res.Rows), ";")
					if !haveWant {
						want, haveWant = got, true
						if len(res.Rows) == 0 && sh.id != "E" {
							t.Errorf("%s%v: no rows", sh.id, args)
						}
						continue
					}
					if got != want {
						t.Fatalf("%s%v %v vectorized=%v: rows differ\ngot  %s\nwant %s", sh.id, args, s, vec, got, want)
					}
				}
				lit, err := db.QueryWith(literalSQL(sh.query, args), s)
				if err != nil {
					t.Fatalf("%s%v %v literal: %v", sh.id, args, s, err)
				}
				if got := strings.Join(sortedRows(lit.Rows), ";"); got != want {
					t.Fatalf("%s%v %v: literal text's rows differ\ngot  %s\nwant %s", sh.id, args, s, got, want)
				}
			}
		}
		for _, s := range allStrategies {
			if n := len(plans[s]); n > engine.MaxBindingPlans {
				t.Errorf("%s %v: %d distinct plans executed, a text keeps at most %d", sh.id, s, n, engine.MaxBindingPlans)
			}
		}
	}
}

// TestTable1Shapes validates the paper's qualitative shape for every row
// using the deterministic work metric.
func TestTable1Shapes(t *testing.T) {
	db := benchDB(t)
	byID := map[string]map[engine.Strategy]Measurement{}
	for _, e := range Experiments() {
		byID[e.ID] = measureAll(t, db, e)
	}
	orig := func(id string) int64 { return work(byID[id][engine.Original]) }
	corr := func(id string) int64 { return work(byID[id][engine.Correlated]) }
	emst := func(id string) int64 { return work(byID[id][engine.EMST]) }

	// A and F: one-row outer — both rewrites crush Original.
	for _, id := range []string{"A", "F"} {
		if corr(id)*5 > orig(id) {
			t.Errorf("exp %s: correlated should be >5x better: %d vs %d", id, corr(id), orig(id))
		}
		if emst(id)*5 > orig(id) {
			t.Errorf("exp %s: EMST should be >5x better: %d vs %d", id, emst(id), orig(id))
		}
	}
	// B and E: EMST < Correlated < Original (duplicate bindings).
	for _, id := range []string{"B", "E"} {
		if !(emst(id) < corr(id) && corr(id) < orig(id)) {
			t.Errorf("exp %s: want EMST < Correlated < Original, got %d / %d / %d",
				id, emst(id), corr(id), orig(id))
		}
	}
	// C: correlation collapses (worse than Original); EMST still wins.
	if corr("C") < 2*orig("C") {
		t.Errorf("exp C: correlated should collapse: %d vs %d", corr("C"), orig("C"))
	}
	if emst("C") >= orig("C") {
		t.Errorf("exp C: EMST should beat original: %d vs %d", emst("C"), orig("C"))
	}
	// D: correlation far worse; EMST roughly at par (within 2x).
	if corr("D") < 5*orig("D") {
		t.Errorf("exp D: correlated should collapse hard: %d vs %d", corr("D"), orig("D"))
	}
	if emst("D") > 2*orig("D") {
		t.Errorf("exp D: EMST should stay near par: %d vs %d", emst("D"), orig("D"))
	}
	// G: the paper's headline — EMST orders of magnitude better.
	if emst("G")*10 > orig("G") {
		t.Errorf("exp G: EMST should be >10x better: %d vs %d", emst("G"), orig("G"))
	}
	// H: both rewrites beat Original; EMST beats Correlated.
	if !(emst("H") < corr("H") && corr("H") < orig("H")) {
		t.Errorf("exp H: want EMST < Correlated < Original, got %d / %d / %d",
			emst("H"), corr("H"), orig("H"))
	}
}

// TestCorrelatedIsUnstable pins the paper's headline claim: across the
// suite, correlation swings from far better to far worse than Original,
// while EMST never collapses.
func TestCorrelatedIsUnstable(t *testing.T) {
	db := benchDB(t)
	var corrRatios, emstRatios []float64
	for _, e := range Experiments() {
		ms := measureAll(t, db, e)
		o := float64(work(ms[engine.Original]))
		corrRatios = append(corrRatios, float64(work(ms[engine.Correlated]))/o)
		emstRatios = append(emstRatios, float64(work(ms[engine.EMST]))/o)
	}
	minMax := func(v []float64) (float64, float64) {
		lo, hi := v[0], v[0]
		for _, x := range v {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return lo, hi
	}
	cLo, cHi := minMax(corrRatios)
	_, eHi := minMax(emstRatios)
	if cHi/cLo < 20 {
		t.Errorf("correlated should be unstable: ratios span only %.1fx (%.3f..%.3f)", cHi/cLo, cLo, cHi)
	}
	if eHi > 2.0 {
		t.Errorf("EMST should never collapse: worst ratio %.2f", eHi)
	}
}

func TestTable1Runs(t *testing.T) {
	db := benchDB(t)
	rows, err := Table1(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Original != 100 {
			t.Errorf("exp %s: original not normalized to 100", r.Experiment.ID)
		}
		if r.Correlated <= 0 || r.EMST <= 0 {
			t.Errorf("exp %s: non-positive normalized times", r.Experiment.ID)
		}
	}
	text := FormatTable(rows)
	if !strings.Contains(text, "Exp A") || !strings.Contains(text, "Exp H") {
		t.Errorf("table format:\n%s", text)
	}
}

func TestConfigScaling(t *testing.T) {
	c := DefaultConfig().WithScale(2)
	if c.EmpsPerDept != 80 || c.SalesPerDept != 300 {
		t.Errorf("scaling wrong: %+v", c)
	}
	if c2 := DefaultConfig().WithScale(0); c2.EmpsPerDept != 40 {
		t.Errorf("scale 0 should clamp to 1")
	}
}

// TestAblations verifies every ablated variant still computes the correct
// answer and exhibits the structural effect it disables: no-phase-3 leaves
// more boxes; no distinct pull-up leaves enforced DISTINCT magic boxes.
func TestAblations(t *testing.T) {
	db := benchDB(t)
	rows, err := RunAblations(db, []string{"G", "H"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	boxes := map[string]map[string]int{}
	for _, r := range rows {
		if boxes[r.Experiment] == nil {
			boxes[r.Experiment] = map[string]int{}
		}
		boxes[r.Experiment][r.Variant] = r.Boxes
	}
	for exp, byVariant := range boxes {
		if byVariant["no phase-3 cleanup"] <= byVariant["full EMST"] {
			t.Errorf("exp %s: phase-3 cleanup should reduce boxes (%d vs %d raw)",
				exp, byVariant["full EMST"], byVariant["no phase-3 cleanup"])
		}
	}
	// Results must agree with the Original strategy for every variant.
	for _, e := range Experiments() {
		if e.ID != "G" {
			continue
		}
		want := strings.Join(resultRows(t, db, e, engine.Original), ";")
		for _, v := range AblationVariants() {
			g, err := buildFor(db, e.Query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := optimizeWith(g, v); err != nil {
				t.Fatal(err)
			}
			ev := newEval(db)
			got, err := ev.EvalGraph(g)
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			gotS := strings.Join(sortedRows(got), ";")
			if gotS != want {
				t.Errorf("exp G variant %q: results differ\ngot  %s\nwant %s", v.Name, gotS, want)
			}
		}
	}
}

// TestSipsAblation pins the §2 claim that cost-based join orders are what
// make magic effective: with declaration-order sips and the view first in
// FROM, no bindings exist and the transformation does not restrict; with
// cost-based sips the outer table is ordered first and magic applies.
func TestSipsAblation(t *testing.T) {
	db := benchDB(t)
	rows, err := RunAblations(db, []string{"S"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var full, decl AblationRow
	for _, r := range rows {
		switch r.Variant {
		case "full EMST":
			full = r
		case "declaration-order sips":
			decl = r
		}
	}
	if full.Counters.OutputRows*2 > decl.Counters.OutputRows {
		t.Errorf("cost-based sips should restrict far more: %d vs %d output rows",
			full.Counters.OutputRows, decl.Counters.OutputRows)
	}
}

// TestSweepCrossover: correlated execution must cross from sub-par at
// width 1 to a multiple of Original at wide widths, while EMST stays at or
// below roughly par everywhere. The assertions use the deterministic work
// metric; wall-clock sweeps are for cmd/table1 -sweep.
func TestSweepCrossover(t *testing.T) {
	db := benchDB(t)
	type ratios struct{ corr, emst float64 }
	var pts []ratios
	for _, w := range []int{1, 20, 55} {
		e := Experiment{
			ID:   "W",
			Name: "sweep",
			Query: fmt.Sprintf(`SELECT d.deptname, v.total FROM department d, deptOrders v
				WHERE d.deptno = v.deptno AND d.deptno <= %d`, w),
		}
		ms := measureAll(t, db, e)
		o := float64(work(ms[engine.Original]))
		pts = append(pts, ratios{
			corr: float64(work(ms[engine.Correlated])) / o,
			emst: float64(work(ms[engine.EMST])) / o,
		})
	}
	if pts[0].corr > pts[2].corr {
		t.Errorf("correlated should degrade with width: %.2f -> %.2f", pts[0].corr, pts[2].corr)
	}
	if pts[2].corr < 1.5 {
		t.Errorf("correlated should collapse at wide width: %.2f", pts[2].corr)
	}
	for i, p := range pts {
		if p.emst > 1.6 {
			t.Errorf("EMST collapsed at point %d: %.2f", i, p.emst)
		}
	}
	// Exercise the wall-clock sweep path once for coverage.
	sw, err := Sweep(db, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatSweep(sw), "width") {
		t.Error("format missing header")
	}
}
