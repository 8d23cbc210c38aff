// Benchmarks regenerating every table and figure of the paper's evaluation:
//
//   - Table 1 (experiments A–H): BenchmarkExp<ID>/<strategy> measures one
//     execution of the experiment's prepared plan under each strategy.
//     Compare the per-op times of the three strategies of one experiment to
//     obtain the paper's normalized rows (Original = 100); `go run
//     ./cmd/table1` prints them directly.
//   - Figures 1/4 (the magic transformation of query D):
//     BenchmarkPipelineQueryD measures the three-phase rewrite+costing
//     pipeline that produces those graphs.
//   - §3.2 (join-order determination cost): BenchmarkJoinOrderHeuristic
//     measures the two plan-optimization passes of the heuristic on an
//     8-way join; `go run ./cmd/optcost` prints the 2^n comparison.
//
// Run with: go test -bench=. -benchmem .
package starmagic_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"starmagic/internal/bench"
	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/engine"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
)

// benchCfg keeps bench runtime moderate; use cmd/table1 -scale for larger
// runs.
var benchCfg = bench.Config{
	Departments: 100, EmpsPerDept: 20, SalesPerDept: 80, OrdersPerDept: 80, Seed: 1994,
}

var (
	benchOnce sync.Once
	benchDBV  *engine.Database
	benchErr  error
)

func benchDB(b *testing.B) *engine.Database {
	benchOnce.Do(func() { benchDBV, benchErr = bench.NewDB(benchCfg) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDBV
}

// benchmarkExperiment runs one (experiment, strategy) pair.
func benchmarkExperiment(b *testing.B, id string, strategy engine.Strategy) {
	db := benchDB(b)
	var exp bench.Experiment
	for _, e := range bench.Experiments() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.ID == "" {
		b.Fatalf("no experiment %s", id)
	}
	p, err := db.Prepare(exp.Query, strategy)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1, experiments A–H × {Original, Correlated, EMST}.
func BenchmarkExpA(b *testing.B) { runStrategies(b, "A") }
func BenchmarkExpB(b *testing.B) { runStrategies(b, "B") }
func BenchmarkExpC(b *testing.B) { runStrategies(b, "C") }
func BenchmarkExpD(b *testing.B) { runStrategies(b, "D") }
func BenchmarkExpE(b *testing.B) { runStrategies(b, "E") }
func BenchmarkExpF(b *testing.B) { runStrategies(b, "F") }
func BenchmarkExpG(b *testing.B) { runStrategies(b, "G") }
func BenchmarkExpH(b *testing.B) { runStrategies(b, "H") }

func runStrategies(b *testing.B, id string) {
	b.Run("original", func(b *testing.B) { benchmarkExperiment(b, id, engine.Original) })
	b.Run("correlated", func(b *testing.B) { benchmarkExperiment(b, id, engine.Correlated) })
	b.Run("emst", func(b *testing.B) { benchmarkExperiment(b, id, engine.EMST) })
}

// BenchmarkPipelineQueryD measures the optimization pipeline that produces
// the Figure 1/Figure 4 graph sequence for the paper's query D.
func BenchmarkPipelineQueryD(b *testing.B) {
	db := benchDB(b)
	queryD := bench.Experiments()[6].Query // experiment G is the query-D shape
	q, err := sql.ParseQuery(queryD)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := semant.NewBuilder(db.Catalog()).Build(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Optimize(g, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecursiveTC measures the deductive-database headline: bounded
// transitive closure with and without magic (Original computes the full
// closure; EMST seeds the fixpoint with the query constant).
func BenchmarkRecursiveTC(b *testing.B) {
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
	CREATE INDEX edge_src ON edge (src);
	CREATE VIEW tc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;`); err != nil {
		b.Fatal(err)
	}
	var script strings.Builder
	script.WriteString("INSERT INTO edge VALUES ")
	for c := 0; c < 40; c++ {
		for i := 0; i < 14; i++ {
			if c+i > 0 {
				script.WriteString(", ")
			}
			fmt.Fprintf(&script, "(%d, %d)", c*1000+i, c*1000+i+1)
		}
	}
	if _, err := db.Exec(script.String()); err != nil {
		b.Fatal(err)
	}
	const query = "SELECT dst FROM tc WHERE src = 7000"
	for _, s := range []engine.Strategy{engine.Original, engine.EMST} {
		b.Run(s.String(), func(b *testing.B) {
			p, err := db.Prepare(query, s)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRowKey measures the executor's row-key encoder — the binary
// length-prefixed AppendKey into a reused buffer — over the shapes the
// executor hashes in practice: ints, floats, short and longer strings, bools
// and NULLs. Run with -benchmem; it amortizes to zero allocations per row.
func BenchmarkRowKey(b *testing.B) {
	names := []string{"alice", "bob", "carol", "a longer employee name", ""}
	rows := make([]datum.Row, 1024)
	for i := range rows {
		rows[i] = datum.Row{
			datum.Int(int64(i)),
			datum.String(names[i%len(names)]),
			datum.Float(float64(i%97) / 3),
			datum.Bool(i%2 == 0),
		}
		if i%11 == 0 {
			rows[i][2] = datum.NullOf(datum.TFloat)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = datum.AppendKey(buf[:0], rows[i%len(rows)])
	}
	_ = buf
}

// hashJoinDB builds two unindexed tables so the equi-join below must take
// the transient hash-join path (no index to probe).
func hashJoinDB(b *testing.B, rows int) *engine.Database {
	b.Helper()
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE build_side (a INT, b INT);
	CREATE TABLE probe_side (a INT, b INT);`); err != nil {
		b.Fatal(err)
	}
	load := func(table string, mod int64) {
		batch := make([]datum.Row, rows)
		for i := range batch {
			batch[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i) % mod)}
		}
		if err := db.InsertRows(table, batch); err != nil {
			b.Fatal(err)
		}
	}
	load("build_side", 977)
	load("probe_side", 953)
	return db
}

// BenchmarkHashJoinBuild measures one execution of an unindexed equi-join:
// each Execute runs with a fresh evaluator, so the transient hash table is
// rebuilt every iteration.
func BenchmarkHashJoinBuild(b *testing.B) {
	const rows = 8192
	db := hashJoinDB(b, rows)
	const query = `SELECT p.a FROM probe_side p, build_side s
	               WHERE p.b = s.b AND s.a < 50 AND p.a < 50`
	b.ReportAllocs()
	p, err := db.Prepare(query, engine.EMST)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// earlyExitDB builds a 100k-row table for the streaming early-exit
// benchmarks.
func earlyExitDB(b *testing.B) *engine.Database {
	b.Helper()
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE big (id INT, grp INT);
	CREATE TABLE small (id INT);
	INSERT INTO small VALUES (1), (2), (3);`); err != nil {
		b.Fatal(err)
	}
	const rows = 100_000
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 97))}
	}
	if err := db.InsertRows("big", batch); err != nil {
		b.Fatal(err)
	}
	return db
}

// runEarlyExit benchmarks one query whose streamed plan stops pulling at
// its first decisive rows.
func runEarlyExit(b *testing.B, db *engine.Database, query string) {
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		p, err := db.PrepareContext(context.Background(), query)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExistsEarlyExit measures the semi-join short-circuit: an
// uncorrelated EXISTS over a 100k-row table is satisfied by its first
// batch when streamed.
func BenchmarkExistsEarlyExit(b *testing.B) {
	db := earlyExitDB(b)
	runEarlyExit(b, db, `SELECT s.id FROM small s WHERE EXISTS (SELECT 1 FROM big t)`)
}

// BenchmarkLimitPushdown measures the LIMIT stop signal: five rows out of
// 100k stop the scan spine when streamed.
func BenchmarkLimitPushdown(b *testing.B) {
	db := earlyExitDB(b)
	runEarlyExit(b, db, `SELECT t.id FROM big t WHERE t.id >= 10 LIMIT 5`)
}

// BenchmarkJoinOrderHeuristic measures the §3.2 heuristic: two plan-
// optimization passes around EMST on an n-way join, for n = 4 and 8.
func BenchmarkJoinOrderHeuristic(b *testing.B) {
	db := benchDB(b)
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var from, where []string
			for i := 0; i < n; i++ {
				from = append(from, fmt.Sprintf("employee e%d", i))
				if i > 0 {
					where = append(where, fmt.Sprintf("e%d.workdept = e%d.workdept", i-1, i))
				}
			}
			where = append(where, "e0.empno < 1050")
			query := "SELECT e0.empno FROM " + strings.Join(from, ", ") +
				" WHERE " + strings.Join(where, " AND ")
			q, err := sql.ParseQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := semant.NewBuilder(db.Catalog()).Build(q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Optimize(g, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// preparedBenchQuery is a parameterized Table-1-style query through a
// grouping view: the magic transformation installs a seed box, and because
// `?` is an opaque constant the seeded plan is identical for every binding —
// which is what lets the plan cache serve it.
const preparedBenchQuery = `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
	WHERE d.deptno = v.workdept AND d.deptname = ?`

// BenchmarkColdPrepare measures the full prepare pipeline with the plan
// cache disabled: parse, bind, the three rewrite phases, and both
// plan-optimization passes of the §3.2 cost comparison.
func BenchmarkColdPrepare(b *testing.B) {
	db := benchDB(b)
	db.SetPlanCache(false)
	defer db.SetPlanCache(true)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PrepareContext(ctx, preparedBenchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedCacheHit measures the same prepare served by the sharded
// plan cache: normalize the SQL, hit one shard's LRU, shallow-copy the
// cached plan.
func BenchmarkPreparedCacheHit(b *testing.B) {
	db := benchDB(b)
	db.SetPlanCache(true)
	ctx := context.Background()
	if _, err := db.PrepareContext(ctx, preparedBenchQuery); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PrepareContext(ctx, preparedBenchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// rowPipelineDB builds a 20 000-row fact table over 150 groups, a 150-row
// dimension and a grouped view of the fact table. The queries below filter
// with a LIKE no columnar kernel compiles, so each select and group-by runs
// on the row pipeline.
func rowPipelineDB(b *testing.B) *engine.Database {
	b.Helper()
	db := engine.New()
	if _, err := db.Exec(`
	CREATE TABLE fact (id INT, k INT, v FLOAT, name VARCHAR);
	CREATE TABLE dim (k INT, w FLOAT, name VARCHAR);
	CREATE VIEW factTot (k, total, n) AS
	  SELECT k, SUM(v), COUNT(*) FROM fact WHERE name LIKE 'x%' GROUP BY k;`); err != nil {
		b.Fatal(err)
	}
	const rows, groups = 20_000, 150
	facts := make([]datum.Row, rows)
	for i := range facts {
		facts[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % groups)), datum.Float(float64(i) * 0.25), datum.String("x")}
	}
	dims := make([]datum.Row, groups)
	for k := range dims {
		dims[k] = datum.Row{datum.Int(int64(k)), datum.Float(float64(k) * 0.25), datum.String("x")}
	}
	if err := db.InsertRows("fact", facts); err != nil {
		b.Fatal(err)
	}
	if err := db.InsertRows("dim", dims); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkRowPipeline measures one execution of each row-pipeline breaker
// over the 20 000 filtered fact rows: hash aggregation, DISTINCT, the
// dimension joined to the grouped view (the view is the hash build, as in
// Table 1's magic plans), a nested-loop (non-equi) join, EXCEPT, and ORDER
// BY.
func BenchmarkRowPipeline(b *testing.B) {
	db := rowPipelineDB(b)
	for _, c := range []struct{ name, query string }{
		{"groupby", "SELECT k, SUM(v), COUNT(*) FROM fact WHERE name LIKE 'x%' GROUP BY k"},
		{"distinct", "SELECT DISTINCT k FROM fact WHERE name LIKE 'x%'"},
		{"viewjoin", "SELECT d.k, t.total FROM dim d, factTot t WHERE d.k = t.k AND d.name LIKE 'x%'"},
		{"nonequi", "SELECT d.k, f.id FROM dim d, fact f WHERE d.k < 10 AND f.v < d.w AND f.name LIKE 'x%'"},
		{"except", "SELECT id FROM fact WHERE name LIKE 'x%' EXCEPT SELECT id FROM fact WHERE name LIKE 'x%' AND k < 75"},
		{"orderby", "SELECT id, v FROM fact WHERE name LIKE 'x%' ORDER BY k, v DESC"},
	} {
		b.Run(c.name, func(b *testing.B) {
			// Original keeps the plans as written: no magic set restricts
			// the view join's build side.
			p, err := db.Prepare(c.query, engine.Original)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
