package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"starmagic/internal/datum"
)

// boundDB holds emp(id, dept, sal): ids 1..2000 over 40 departments,
// salaries id*10, and dsum, the per-department salary total.
func boundDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`CREATE TABLE emp (id INT, dept INT, sal INT, PRIMARY KEY (id));
CREATE INDEX emp_dept ON emp (dept);
CREATE VIEW dsum (dept, total) AS SELECT dept, SUM(sal) FROM emp GROUP BY dept`); err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 0, 2000)
	for id := int64(1); id <= 2000; id++ {
		rows = append(rows, datum.Row{datum.Int(id), datum.Int(id % 40), datum.Int(id * 10)})
	}
	if err := db.InsertRows("emp", rows); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	return db
}

const boundQuery = `SELECT e.id, v.total FROM emp e, dsum v WHERE e.dept = v.dept AND e.id < ? AND e.sal > ?`

// boundArgs are bindings whose two conjuncts' selectivities span several
// half-decades each: more classes than a text keeps plans for.
func boundArgs() [][]any {
	var out [][]any
	for _, hi := range []int64{3, 12, 40, 150, 500, 1900} {
		for _, lo := range []int64{0, 15000, 19000, 19900} {
			out = append(out, []any{hi, lo})
		}
	}
	return out
}

func sortedAnswer(t *testing.T, res *Result) string {
	t.Helper()
	rows := rowsAsStrings(res)
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// storedPlans counts the plan-cache entries made for p's selectivity
// classes.
func storedPlans(p *Prepared) int {
	n := 0
	for i := range p.db.plans.shards {
		sh := &p.db.plans.shards[i]
		sh.mu.Lock()
		for key := range sh.m {
			if strings.HasPrefix(key, p.bound.key+"\x00class=") {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestBoundPlansPerClass: an execution runs the plan made for its binding's
// class — one per class, made on the class's first execution, at most
// MaxBindingPlans per text — and answers what the literal text answers.
// After the catalog epoch moves, a held Prepared prepares its text again.
func TestBoundPlansPerClass(t *testing.T) {
	db := boundDB(t)
	p, err := db.Prepare(boundQuery, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if p.bound == nil || len(p.bound.conjs) != 2 {
		t.Fatalf("binding-sensitive conjuncts not recorded: %+v", p.bound)
	}
	if !strings.Contains(p.Explain().String(), "re-plan once per binding") {
		t.Error("EXPLAIN does not say executions re-plan")
	}
	before := db.Metrics()
	var results []*Result
	for _, args := range boundArgs() {
		res, err := p.Execute(args...)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	// Each class plan is one optimizer run, counted as a cache miss and a
	// plan sample.
	after := db.Metrics()
	if misses, plans := after.CacheMisses-before.CacheMisses, after.Plans-before.Plans; misses != MaxBindingPlans || plans != MaxBindingPlans {
		t.Errorf("%d cache misses and %d plans recorded, want %d of each", misses, plans, MaxBindingPlans)
	}
	if after.OptimizeNanos == before.OptimizeNanos {
		t.Error("class plans' optimization time not recorded")
	}
	for i, args := range boundArgs() {
		res := results[i]
		lit, err := db.Query(strings.Replace(strings.Replace(boundQuery, "?", fmt.Sprint(args[0]), 1), "?", fmt.Sprint(args[1]), 1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedAnswer(t, res), sortedAnswer(t, lit); got != want {
			t.Fatalf("%v: rows %s, literal text's %s", args, got, want)
		}
	}
	if n := storedPlans(p); n != MaxBindingPlans {
		t.Errorf("%d plans stored, want the cap %d", n, MaxBindingPlans)
	}
	// The prepare-time plan is what EXPLAIN shows; a re-prepare shares the
	// entry's plans.
	again, err := db.Prepare(boundQuery, EMST)
	if err != nil {
		t.Fatal(err)
	}
	if again.bound != p.bound || again.Explain().Physical != p.Explain().Physical {
		t.Error("a cache hit does not share the entry's plans")
	}
	// Small ids and no salary cut: literal B's shape, the magic plan.
	small, err := p.Execute(int64(12), int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if !small.Plan.UsedEMST || small.Plan.Physical() == "" {
		t.Errorf("bound plan not reported: EMST %v\n%s", small.Plan.UsedEMST, small.Plan.Physical())
	}
	// After the epoch moves, the held Prepared prepares its text again —
	// one cache miss — and runs the new epoch's plan for the class, made
	// once (a second miss) and reused.
	db.Analyze()
	before = db.Metrics()
	for i := 0; i < 2; i++ {
		stale, err := p.Execute(int64(12), int64(0))
		if err != nil {
			t.Fatal(err)
		}
		if !stale.Plan.UsedEMST || sortedAnswer(t, stale) != sortedAnswer(t, small) {
			t.Errorf("after an epoch change: EMST %v, rows agree %v", stale.Plan.UsedEMST, sortedAnswer(t, stale) == sortedAnswer(t, small))
		}
	}
	if misses := db.Metrics().CacheMisses - before.CacheMisses; misses != 2 {
		t.Errorf("%d cache misses after the epoch change, want 2 (the text, its class)", misses)
	}
	if q := p.replan.Load(); q == nil || q.epoch != db.epoch.Load() || q.bound == p.bound {
		t.Error("the held Prepared was not prepared again under the new epoch")
	}
}

// TestBoundPlansConcurrent: eight goroutines execute one Prepared with
// bindings of many classes while a writer dirties the statistics — rows the
// query never returns — and a preparer refreshes them. Every answer is the
// serial one and no more plans than the cap are stored. Run it under -race.
func TestBoundPlansConcurrent(t *testing.T) {
	db := boundDB(t)
	p, err := db.Prepare(boundQuery, EMST)
	if err != nil {
		t.Fatal(err)
	}
	args := boundArgs()
	want := make([]string, len(args))
	for i, a := range args {
		// The literal text has no per-binding plans: the serial answer.
		res, err := db.Query(strings.Replace(strings.Replace(boundQuery, "?", fmt.Sprint(a[0]), 1), "?", fmt.Sprint(a[1]), 1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedAnswer(t, res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	done := make(chan struct{})
	wg.Add(1)
	go func() { // writer: ids past every binding, in a department of their own
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO emp VALUES (%d, 99, 5)", 100000+i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // preparer: refreshes the dirty statistics
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := db.Prepare(`SELECT id FROM emp WHERE dept = 3`, EMST); err != nil {
				errs <- err
				return
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 3*len(args); i++ {
				k := (w*7 + i) % len(args)
				res, err := p.Execute(args[k]...)
				if err != nil {
					errs <- err
					return
				}
				if got := sortedAnswer(t, res); got != want[k] {
					errs <- fmt.Errorf("worker %d %v: rows %s, want %s", w, args[k], got, want[k])
					return
				}
			}
		}()
	}
	workers.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := storedPlans(p); n > MaxBindingPlans {
		t.Errorf("%d plans stored, cap %d", n, MaxBindingPlans)
	}
}

// TestUnparameterizedTextsKeepOnePlan: a text without `?`, or whose
// parameters no estimate reads, records no per-binding plans.
func TestUnparameterizedTextsKeepOnePlan(t *testing.T) {
	db := boundDB(t)
	for _, q := range []string{
		`SELECT e.id FROM emp e WHERE e.id < 12`,
		`SELECT e.id FROM emp e WHERE e.id + 1 < ?`,
	} {
		p, err := db.Prepare(q, EMST)
		if err != nil {
			t.Fatal(err)
		}
		if p.bound != nil {
			t.Errorf("%s: per-binding plans recorded", q)
		}
		if strings.Contains(p.Explain().String(), "re-plan") {
			t.Errorf("%s: EXPLAIN says executions re-plan", q)
		}
	}
}
