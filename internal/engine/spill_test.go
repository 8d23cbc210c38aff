package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/resource"
)

// spillDB is the random-query oracle schema (see random_test.go) with enough
// rows that a few-KB memory budget forces every stateful operator to spill.
func spillDB(t *testing.T) *Database {
	t.Helper()
	db := newDB(t)
	if _, err := db.Exec(`
	CREATE VIEW bigEarners (empno, workdept, salary) AS
	  SELECT empno, workdept, salary FROM employee WHERE salary >= 500;
	CREATE VIEW deptCounts (workdept, cnt, total) AS
	  SELECT workdept, COUNT(*), SUM(salary) FROM employee GROUPBY workdept;
	CREATE TABLE link (src INT, dst INT, PRIMARY KEY (src, dst));
	INSERT INTO link VALUES (1, 2), (2, 3), (3, 1), (2, 101), (101, 201), (201, 202);
	CREATE VIEW reach (src, dst) AS
	  SELECT src, dst FROM link
	  UNION SELECT r.src, l.dst FROM reach r, link l WHERE r.dst = l.src;
	`); err != nil {
		t.Fatal(err)
	}
	// Bulk rows so join builds, sorts, and group-by state dwarf a few-KB
	// budget: ~1.5k extra employees across the three departments.
	extra := make([]datum.Row, 1500)
	for i := range extra {
		extra[i] = datum.Row{
			datum.Int(int64(1000 + i)),
			datum.String(fmt.Sprintf("worker-%04d", i)),
			datum.Int(int64(i%3 + 1)),
			datum.Float(float64(200 + (i*37)%900)),
		}
	}
	if err := db.InsertRows("employee", extra); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSpillOracleMatchesMaterialized re-runs the random-query oracle with a
// memory budget small enough to force spilling: rows must still match the
// unlimited run in content AND order, the unlimited run must match the
// reference evaluator, no run may exceed its budget (the governor's
// accounting asserts it), and the workload as a whole must actually spill —
// otherwise the budget was too generous to test anything.
func TestSpillOracleMatchesMaterialized(t *testing.T) {
	db := spillDB(t)
	const limit = 64 << 10
	n := 200
	if testing.Short() {
		n = 50
	}
	gen := &queryGen{rng: rand.New(rand.NewSource(271828))}
	ctx := context.Background()
	var spills int64
	for i := 0; i < n; i++ {
		query := gen.query()
		ref, err := db.QueryContext(ctx, query)
		if err != nil {
			t.Fatalf("query %d %q: unlimited: %v", i, query, err)
		}
		if got, want := bag(ref.Rows), bag(referenceRows(t, db, nil, query)); got != want {
			t.Fatalf("query %d %q: unlimited disagrees with the reference\ngot  %s\nwant %s", i, query, got, want)
		}
		res, err := db.QueryContext(ctx, query, WithMemoryLimit(limit))
		if err != nil {
			t.Fatalf("query %d %q: under %d-byte budget: %v", i, query, limit, err)
		}
		got := strings.Join(rowsAsStrings(res), ";")
		want := strings.Join(rowsAsStrings(ref), ";")
		if got != want {
			t.Fatalf("query %d %q: under budget disagrees with unlimited\ngot  %s\nwant %s",
				i, query, got, want)
		}
		if peak := res.Plan.Mem.PeakBytes; peak > limit {
			t.Fatalf("query %d %q: peak %d exceeds budget %d", i, query, peak, limit)
		}
		if res.Plan.Mem.LimitBytes != limit {
			t.Fatalf("query %d %q: Mem.LimitBytes = %d, want %d", i, query, res.Plan.Mem.LimitBytes, limit)
		}
		spills += res.Plan.Mem.Spills
	}
	if spills == 0 {
		t.Fatalf("no query spilled under a %d-byte budget; the oracle exercised nothing", limit)
	}
	t.Logf("workload spilled %d times under a %d-byte budget", spills, limit)
}

// TestSpillCountersSurface checks the observability plumbing end to end: a
// budgeted run that spills reports it in PlanInfo.Mem, in the per-operator
// physical plan, and in the database-wide metrics.
func TestSpillCountersSurface(t *testing.T) {
	db := spillDB(t)
	db.ResetMetrics()
	res, err := db.QueryContext(context.Background(),
		`SELECT e.empno, d.deptname FROM employee e, department d
		 WHERE e.workdept = d.deptno ORDER BY e.empno`,
		WithMemoryLimit(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Mem.Spills == 0 || res.Plan.Mem.SpilledBytes == 0 {
		t.Fatalf("run under 2KB budget reports no spills: %+v", res.Plan.Mem)
	}
	if !strings.Contains(res.Plan.Physical(), "spills=") {
		t.Fatalf("physical plan missing spill counters:\n%s", res.Plan.Physical())
	}
	var attributed int64
	for _, op := range res.Plan.Operators() {
		attributed += op.Spills
	}
	if attributed == 0 {
		t.Fatal("no operator report carries spill counters")
	}
	m := db.Metrics()
	if m.Spills == 0 || m.BytesSpilled == 0 {
		t.Fatalf("metrics missing spill totals: spills=%d bytes=%d", m.Spills, m.BytesSpilled)
	}
	if m.MemPeakBytes == 0 || m.MemPeakBytes > 2<<10 {
		t.Fatalf("metrics MemPeakBytes = %d, want in (0, %d]", m.MemPeakBytes, 2<<10)
	}
}

// TestMemoryExceededTyped checks graceful failure: state that cannot spill
// below the budget (a single row larger than the whole budget) surfaces
// resource.ErrMemoryExceeded instead of OOM-ing.
func TestMemoryExceededTyped(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE blob (id INT, body STRING);`); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 64<<10)
	rows := make([]datum.Row, 4)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i)), datum.String(big + fmt.Sprint(i))}
	}
	if err := db.InsertRows("blob", rows); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT DISTINCT body FROM blob ORDER BY body`
	_, err := db.QueryContext(context.Background(), query, WithMemoryLimit(4<<10))
	if err == nil {
		t.Fatal("64KB rows under a 4KB budget succeeded, want error")
	}
	if !errors.Is(err, resource.ErrMemoryExceeded) {
		t.Fatalf("got %v, want resource.ErrMemoryExceeded", err)
	}
	// The same query under no budget (or a sufficient one) succeeds.
	if _, err := db.Query(query); err != nil {
		t.Fatalf("unlimited run failed: %v", err)
	}
	if _, err := db.QueryContext(context.Background(), query, WithMemoryLimit(4<<20)); err != nil {
		t.Fatalf("4MB-budget run failed: %v", err)
	}
}

// TestEngineTotalLimit checks the engine-wide cap is enforced through each
// query's budget even when no per-query limit is set.
func TestEngineTotalLimit(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE blob (id INT, body STRING);`); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("y", 64<<10)
	if err := db.InsertRows("blob", []datum.Row{
		{datum.Int(1), datum.String(big + "a")},
		{datum.Int(2), datum.String(big + "b")},
	}); err != nil {
		t.Fatal(err)
	}
	db.SetMemoryLimit(0, 8<<10)
	_, err := db.Query(`SELECT DISTINCT body FROM blob`)
	if !errors.Is(err, resource.ErrMemoryExceeded) {
		t.Fatalf("got %v, want resource.ErrMemoryExceeded from engine total cap", err)
	}
	stats := db.ResourceStats()
	if stats.UsedBytes != 0 {
		t.Fatalf("governor leaks %d reserved bytes after failed query", stats.UsedBytes)
	}
	db.SetMemoryLimit(0, 0)
	if _, err := db.Query(`SELECT DISTINCT body FROM blob`); err != nil {
		t.Fatalf("uncapped run failed: %v", err)
	}
}

// TestAdmissionQueueStress hammers a 2-slot admission queue from 16
// goroutines under -race: every execution either succeeds or is rejected
// with the typed error, at most 2 run concurrently, and the governor's
// accounting balances when the dust settles.
func TestAdmissionQueueStress(t *testing.T) {
	db := spillDB(t)
	db.SetAdmission(2, 4)
	p, err := db.Prepare(`SELECT e.workdept, COUNT(*) FROM employee e GROUPBY e.workdept`, EMST)
	if err != nil {
		t.Fatal(err)
	}
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := p.Execute()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, resource.ErrAdmissionRejected):
					rejected.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stats := db.ResourceStats()
	if stats.PeakRunning > 2 {
		t.Fatalf("peak concurrency %d exceeds admission cap 2", stats.PeakRunning)
	}
	if stats.Running != 0 || stats.Waiting != 0 {
		t.Fatalf("governor not drained: running=%d waiting=%d", stats.Running, stats.Waiting)
	}
	if got := stats.Admitted; got != ok.Load() {
		t.Fatalf("admitted %d, but %d executions succeeded", got, ok.Load())
	}
	if got := stats.Rejected; got != rejected.Load() {
		t.Fatalf("governor counted %d rejections, callers saw %d", got, rejected.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no execution succeeded")
	}
	t.Logf("admission stress: %d ok, %d rejected, %d waited", ok.Load(), rejected.Load(), stats.Waited)
}

// TestAdmissionWaitMetrics checks a queued execution records its wait in the
// result and the database metrics, and that WithAdmission(false) bypasses
// the queue entirely.
func TestAdmissionWaitMetrics(t *testing.T) {
	db := spillDB(t)
	db.ResetMetrics()
	db.SetAdmission(1, 8)
	// Hold the only slot directly, then run a query that must queue.
	release, _, err := db.gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		res, err := db.Query(`SELECT e.empno FROM employee e WHERE e.empno = 10`)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- res
	}()
	time.Sleep(50 * time.Millisecond)
	release()
	res := <-done
	if res == nil {
		t.FailNow()
	}
	if res.Plan.AdmissionWait <= 0 {
		t.Fatalf("queued execution reports AdmissionWait = %v, want > 0", res.Plan.AdmissionWait)
	}
	m := db.Metrics()
	if m.AdmissionWaits == 0 || m.AdmissionWaitNanos == 0 {
		t.Fatalf("metrics missing admission waits: %+v", m)
	}

	// A bypassing query runs even while the slot is held.
	release2, _, err := db.gov.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := db.QueryContext(ctx, `SELECT e.empno FROM employee e WHERE e.empno = 10`,
		WithAdmission(false)); err != nil {
		t.Fatalf("WithAdmission(false) query failed: %v", err)
	}
}

// TestCloseDrainsAndRejects checks engine shutdown: Close blocks until
// running queries drain, subsequent executions fail with ErrClosed, and no
// goroutines are left behind.
func TestCloseDrainsAndRejects(t *testing.T) {
	db := spillDB(t)
	db.SetAdmission(2, 4)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = db.Query(`SELECT e.workdept, COUNT(*) FROM employee e GROUPBY e.workdept`)
		}()
	}
	wg.Wait()
	db.Close()
	_, err := db.Query(`SELECT e.empno FROM employee e WHERE e.empno = 10`)
	if !errors.Is(err, resource.ErrClosed) {
		t.Fatalf("post-Close query: got %v, want resource.ErrClosed", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpillNestedLoopJoin: a non-equi join of 3 000 × 3 000 rows lowers to a
// nested loop, whose inner streams into a spillable row buffer under a
// memory budget and is replayed once per outer row. Every budget returns the
// unlimited run's rows, spills, stays within its limit, and releases all of
// it.
func TestSpillNestedLoopJoin(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE a (k INT, v INT); CREATE TABLE b (k INT, v INT)`); err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 3000)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 100))}
	}
	for _, table := range []string{"a", "b"} {
		if err := db.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT a.k, b.k FROM a, b WHERE a.k + 2990 < b.k AND a.v < 10`
	ctx := context.Background()
	ref, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("the join answers no rows; the test exercises nothing")
	}
	want := strings.Join(rowsAsStrings(ref), ";")
	for _, limit := range []int64{4 << 10, 16 << 10, 64 << 10} {
		res, err := db.QueryContext(ctx, q, WithMemoryLimit(limit))
		if err != nil {
			t.Fatalf("%d-byte budget: %v", limit, err)
		}
		if got := strings.Join(rowsAsStrings(res), ";"); got != want {
			t.Errorf("%d-byte budget: rows %s, unlimited %s", limit, got, want)
		}
		if !strings.Contains(res.Plan.Physical(), "b:nested-loop") {
			t.Fatalf("the join is not a nested loop:\n%s", res.Plan.Physical())
		}
		if res.Plan.Mem.Spills == 0 || res.Plan.Mem.PeakBytes > limit {
			t.Errorf("%d-byte budget: %d spills, peak %d bytes", limit, res.Plan.Mem.Spills, res.Plan.Mem.PeakBytes)
		}
		if used := db.ResourceStats().UsedBytes; used != 0 {
			t.Errorf("%d-byte budget: governor holds %d bytes after the run", limit, used)
		}
		t.Logf("%d-byte budget: %d rows, %d spills, peak %d", limit, len(res.Rows), res.Plan.Mem.Spills, res.Plan.Mem.PeakBytes)
	}
}
