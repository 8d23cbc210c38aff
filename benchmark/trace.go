package main

// The traced pass: per-layer numbers measured from outside the program, by
// timing calls into each layer's public functions. For every operation it
// replays the engine's own stage order —
//
//	sql.ParseQuery → semant.NewBuilder(cat).Build → rewrite phase 1 →
//	opt.OptimizeEst → phase 2 with core.NewEMSTRule → phase 3 →
//	opt.OptimizeEst → plan.LowerWith → Store.NewView → exec OpenPlan/Next/Close
//
// — recording one span per stage, then makes the real engine call and checks
// that the copy picked the same plan and returned the same rows, so the copy
// cannot drift from the engine unnoticed. Stages run one after another, so a
// stage's self time is its span's duration. Spans stay in memory and are
// written to benchmark/out/trace-<workload>.json when the pass ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"starmagic"
	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/engine"
	"starmagic/internal/exec"
	"starmagic/internal/opt"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
	"starmagic/internal/wal"
)

// tracedOps bounds the traced pass; it also stops at half the run's seconds.
const tracedOps = 2000

// span is one timed call into a layer. Spans of one operation share Op; a
// stage's Parent is the id of its operation's "op" span, a root has -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Op: op, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// in times f as a child span of parent.
func (t *tracer) in(name string, op, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// durations returns the microseconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// optimizerStages are the spans that make up query optimization; they are
// what engine.optimizer_share sums.
var optimizerStages = map[string]bool{
	"sql.parse": true, "semant.bind": true, "rewrite.phase1": true, "opt.planopt1": true,
	"core.emst": true, "rewrite.phase3": true, "opt.planopt2": true, "plan.lower": true,
}

// stagedPlan is what the replayed optimizer stages produced.
type stagedPlan struct {
	phys     *plan.Plan
	usedEMST bool
	counts   map[string]float64
}

// stagePrepare replays engine.prepareCold's EMST-strategy pipeline stage by
// stage. Cloning the pre-EMST graph and clearing the magic links are work
// only EMST needs, so they are timed inside core.emst.
func stagePrepare(tr *tracer, op, parent int, db *engine.Database, text string) (*stagedPlan, error) {
	var (
		q        sql.QueryExpr
		g        *qgm.Graph
		err      error
		r1, r2   opt.Result
		fallback *qgm.Graph
		sp       = &stagedPlan{counts: map[string]float64{}}
		stats    = &rewrite.Stats{}
	)
	newEst := func() *opt.Estimator { return opt.NewEstimatorWith(nil, !db.HistogramsEnabled()) }
	runRules := func(rules ...rewrite.Rule) {
		if err == nil {
			err = rewrite.NewEngine(rules...).Run(&rewrite.Context{G: g, Stats: stats})
		}
	}
	tr.in("sql.parse", op, parent, func() { q, err = sql.ParseQuery(text) })
	if err != nil {
		return nil, err
	}
	tr.in("semant.bind", op, parent, func() { g, err = semant.NewBuilder(db.Catalog()).Build(q) })
	if err != nil {
		return nil, err
	}
	sp.counts["semant.boxes"] = float64(g.Stats().Boxes)
	tr.in("rewrite.phase1", op, parent, func() { runRules(core.Phase1Rules()...) })
	tr.in("opt.planopt1", op, parent, func() { r1 = opt.OptimizeEst(g, newEst()) })
	tr.in("core.emst", op, parent, func() {
		fallback = g.CloneGraph()
		runRules(core.NewEMSTRule(), rewrite.LocalPushdownRule{}, rewrite.DistinctPullupRule{})
		for _, b := range g.Reachable() {
			b.MagicBox, b.MagicCols = nil, nil
		}
		g.GC()
	})
	tr.in("rewrite.phase3", op, parent, func() { runRules(core.Phase3Rules()...) })
	if err != nil {
		return nil, err
	}
	sp.counts["core.boxes_after_phase3"] = float64(g.Stats().Boxes)
	tr.in("opt.planopt2", op, parent, func() { r2 = opt.OptimizeEst(g, newEst()) })
	sp.usedEMST = r2.Cost <= r1.Cost
	if !sp.usedEMST {
		g = fallback
	}
	tr.in("plan.lower", op, parent, func() { sp.phys = plan.LowerWith(g, newEst()) })
	for _, rs := range stats.Snapshot() {
		sp.counts["rewrite.rule_attempts"] += float64(rs.Attempts)
		sp.counts["rewrite.rule_fires"] += float64(rs.Fires)
	}
	sp.counts["opt.plans_considered"] = float64(r1.PlansConsidered + r2.PlansConsidered)
	sp.counts["plan.operators"] = float64(len(sp.phys.Nodes))
	sp.counts["core.used_emst_share"] = 0
	if sp.usedEMST {
		sp.counts["core.used_emst_share"] = 1
	}
	return sp, nil
}

// stageExecute replays Prepared.ExecuteRows: a snapshot view, a fresh
// evaluator, and the plan drained batch by batch.
func stageExecute(tr *tracer, op, parent int, db *engine.Database, sp *stagedPlan, params datum.Row) ([]datum.Row, map[string]float64, error) {
	var view *storage.View
	tr.in("storage.view", op, parent, func() { view = db.Store().NewView(storage.ReadAll) })
	var (
		rows  []datum.Row
		err   error
		stats []plan.OpStats
		ev    = exec.New(db.Store())
	)
	tr.in("exec.execute", op, parent, func() {
		ev.SetView(view)
		ev.Params = params
		ev.SetContext(context.Background())
		var it *exec.PlanIter
		if it, err = ev.OpenPlan(sp.phys); err != nil {
			return
		}
		for {
			var batch []datum.Row
			if batch, err = it.Next(); err != nil || len(batch) == 0 {
				break
			}
			rows = append(rows, batch...)
		}
		if cerr := it.Close(); err == nil {
			err = cerr
		}
		stats = it.Stats()
	})
	if err != nil {
		return nil, nil, err
	}
	c := ev.Counters
	counts := map[string]float64{
		"exec.rows_examined": float64(c.BaseRows + c.HashProbes + c.IndexLookups),
		"exec.rows_out":      float64(len(rows)),
		"exec.box_evals":     float64(c.BoxEvals),
	}
	vecOps := 0
	for _, s := range stats {
		if s.Vectorized {
			vecOps++
		}
	}
	counts["exec.vec_op_share"] = ratio(float64(vecOps), float64(len(stats)))
	return rows, counts, nil
}

// layers accumulates the per-layer metrics of one traced pass.
type layers struct {
	tr     *tracer
	values map[string]float64   // finished metrics
	perOp  map[string][]float64 // per-operation samples, reduced by median
	tally
	// Latency of the same point lookup over the wire and in process; their
	// difference is wire.overhead_us.
	pkWireUS, pkEmbeddedUS []float64
}

func newLayers() *layers {
	return &layers{tr: &tracer{t0: time.Now()}, values: map[string]float64{}, perOp: map[string][]float64{}}
}

func (l *layers) sample(counts map[string]float64) {
	for k, v := range counts {
		l.perOp[k] = append(l.perOp[k], v)
	}
}

// stagedClient is the traced pass's in-process client: every read goes
// through the staged replay and then the real engine call, and the two must
// agree. Reads of prepared workloads replay execution only: their plan is
// staged once per shape, as the application prepares it once. Writes go
// through Begin/Exec/Commit.
type stagedClient struct {
	l        *layers
	w        *workload
	db       *starmagic.DB
	prepared map[string]*starmagic.Prepared
	plans    map[string]*stagedPlan
	ops      int
	reads    int
}

func newStagedClient(l *layers, w *workload, db *starmagic.DB) (*stagedClient, error) {
	c := &stagedClient{l: l, w: w, db: db,
		prepared: map[string]*starmagic.Prepared{}, plans: map[string]*stagedPlan{}}
	if w.adhoc {
		return c, nil
	}
	scratch := &tracer{t0: time.Now()}
	for _, id := range w.readShapes() {
		text := shapes[id].sql
		p, err := db.PrepareContext(context.Background(), text)
		if err != nil {
			return nil, err
		}
		sp, err := stagePrepare(scratch, -1, -1, db.Engine(), text)
		if err != nil {
			return nil, err
		}
		if err := samePlan(sp, p); err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		c.prepared[id], c.plans[id] = p, sp
	}
	return c, nil
}

func (c *stagedClient) do(o *op) ([][]string, error) {
	tr, ctx, i := c.l.tr, context.Background(), c.ops
	c.ops++
	if o.kind != opRead {
		id := tr.begin("engine.commit", i, -1)
		t := c.db.Begin()
		_, err := t.Exec(o.text)
		if err == nil {
			err = t.Commit()
		}
		tr.end(id)
		return nil, err
	}
	c.reads++
	opID := tr.begin("op", i, -1)
	sp := c.plans[o.shape.id]
	var err error
	if c.w.adhoc {
		sp, err = stagePrepare(tr, i, opID, c.db.Engine(), o.text)
	}
	var rows []datum.Row
	var counts map[string]float64
	if err == nil {
		var params datum.Row
		if !c.w.adhoc {
			params = bindRow(o.args)
		}
		rows, counts, err = stageExecute(tr, i, opID, c.db.Engine(), sp, params)
	}
	tr.end(opID)
	if err != nil {
		return nil, fmt.Errorf("staged run: %w", err)
	}

	// The real call: the plan and rows the copy must match, and the time
	// the engine adds around its layers.
	callID := tr.begin("engine.call", i, -1)
	var res *starmagic.Result
	if c.w.adhoc {
		res, err = c.db.QueryContext(ctx, o.text)
	} else {
		res, err = c.prepared[o.shape.id].ExecuteContext(ctx, o.args...)
	}
	tr.end(callID)
	if err != nil {
		return nil, err
	}
	out := textRows(res.Rows)
	if got, want := digest(textRows(rows)), digest(out); got != want {
		return nil, fmt.Errorf("staged run returned %d rows (digest %x), the engine %d (digest %x)",
			len(rows), got, len(out), want)
	}
	if c.w.adhoc {
		if sp.usedEMST != res.Plan.UsedEMST {
			return nil, fmt.Errorf("staged run chose EMST=%v, the engine EMST=%v", sp.usedEMST, res.Plan.UsedEMST)
		}
		c.l.sample(sp.counts)
	}
	c.l.sample(counts)
	children, optimizer := 0.0, 0.0
	for _, s := range tr.spans[opID+1 : callID] {
		children += s.us()
		if optimizerStages[s.Name] {
			optimizer += s.us()
		}
	}
	opUS, callUS := tr.spans[opID].us(), tr.spans[callID].us()
	c.l.sample(map[string]float64{
		"engine.unattributed_us": callUS - children,
		"engine.optimizer_share": ratio(optimizer, opUS),
		"exec.execute_share":     ratio(tr.spans[callID-1].us(), opUS),
	})
	if o.shape.id == "PK" {
		c.l.pkEmbeddedUS = append(c.l.pkEmbeddedUS, callUS)
	}

	// What a prepare costs when the text is already in the plan cache. Not
	// probed between writes: there the next prepare refreshes statistics,
	// which catalog.reanalyze_ms prices and a wire server never pays.
	if !c.w.writes() {
		text := o.text
		if !c.w.adhoc {
			text = o.shape.sql
		}
		tr.in("engine.prepare_hit", i, -1, func() { _, err = c.db.PrepareContext(ctx, text) })
	}
	return out, err
}

// spanClient records one span per operation around another client: all that
// can be seen of a server from outside its process.
type spanClient struct {
	inner client
	l     *layers
	ops   int
}

func (c *spanClient) do(o *op) ([][]string, error) {
	id := c.l.tr.begin("wire.roundtrip", c.ops, -1)
	c.ops++
	rows, err := c.inner.do(o)
	c.l.tr.end(id)
	if o.kind == opRead && o.shape.id == "PK" {
		c.l.pkWireUS = append(c.l.pkWireUS, c.l.tr.spans[id].us())
	}
	return rows, err
}

// samePlan reports whether the staged pipeline and the engine lowered the
// same physical plan.
func samePlan(sp *stagedPlan, p *starmagic.Prepared) error {
	ex := p.Explain()
	if sp.usedEMST != ex.UsedEMST {
		return fmt.Errorf("staged run chose EMST=%v, the engine EMST=%v", sp.usedEMST, ex.UsedEMST)
	}
	if got := sp.phys.String(); got != ex.Physical {
		return fmt.Errorf("staged plan differs from the engine's:\n%s\nvs\n%s", got, ex.Physical)
	}
	return nil
}

// bindRow converts bindings the way engine.WithArgs does.
func bindRow(args []any) datum.Row {
	row := make(datum.Row, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			row[i] = datum.Int(v)
		case float64:
			row[i] = datum.Float(v)
		case string:
			row[i] = datum.String(v)
		}
	}
	return row
}

// plainEmbedded repeats the real calls alone — no spans, no staged copy — to
// count allocations and to price the tracing itself.
func (l *layers) plainEmbedded(w *workload, db *starmagic.DB, seed int64, budget time.Duration) {
	ctx := context.Background()
	prepared := map[string]*starmagic.Prepared{}
	for _, id := range w.readShapes() {
		if p, err := db.PrepareContext(ctx, shapes[id].sql); err == nil {
			prepared[id] = p
		}
	}
	gen := newOpGen(w, seed, 0)
	var lat []float64
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(budget)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	n := 0
	for i := 0; i < tracedOps && time.Now().Before(deadline); i++ {
		o := gen.next()
		if o.kind != opRead {
			continue
		}
		t0 := time.Now()
		var err error
		if w.adhoc {
			_, err = db.QueryContext(ctx, o.text)
		} else {
			_, err = prepared[o.shape.id].ExecuteContext(ctx, o.args...)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			l.fail(err)
		}
		n++
	}
	runtime.ReadMemStats(&ms1)
	l.values["engine.allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(n))
	l.values["engine.bytes_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(n))
	plain := median(lat)
	l.values["trace.overhead_pct"] = 100 * ratio(median(l.tr.durations("engine.call"))-plain, plain)
}

// storageProbe times RelView.Lookup by primary key and sums the dead row
// versions a vacuum could reclaim.
func (l *layers) storageProbe(db *starmagic.DB) {
	store := db.Engine().Store()
	rv, ok := store.NewView(storage.ReadAll).Relation("employee")
	if !ok {
		l.fail(fmt.Errorf("no employee relation"))
		return
	}
	// One sample is the mean over a department's employees: a single
	// lookup is too short to time.
	var samples []float64
	for d := 1; d <= 50; d++ {
		t0 := time.Now()
		for i := 1; i <= empsPerDept; i++ {
			key := datum.Row{datum.Int(int64(d*1000 + i))}
			if got, _ := rv.Lookup([]int{0}, key); len(got) != 1 {
				l.fail(fmt.Errorf("storage lookup of employee %d found %d rows", key[0].I, len(got)))
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/empsPerDept)
	}
	l.values["storage.lookup_us"] = median(samples)
	garbage := int64(0)
	for _, t := range tables {
		if rel, ok := store.Relation(t); ok {
			garbage += rel.Garbage()
		}
	}
	l.values["storage.garbage_versions"] = float64(garbage)
}

// analyzeProbe times a full ANALYZE of the loaded database.
func (l *layers) analyzeProbe(db *starmagic.DB) {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		db.Analyze()
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	l.values["catalog.analyze_ms"] = median(ms)
}

// reanalyzeProbe prices the statistics refresh a prepare pays after a write:
// a cold prepare right after a committed INSERT against a cold prepare with
// clean statistics.
func (l *layers) reanalyzeProbe(db *starmagic.DB) {
	ctx := context.Background()
	cold := func(i int) float64 {
		text := literalize(shapes["F"].sql, []any{int64(1 + i%departments), int64(-1 - i)})
		t0 := time.Now()
		if _, err := db.PrepareContext(ctx, text); err != nil {
			l.fail(err)
		}
		return time.Since(t0).Seconds() * 1e3
	}
	var clean, dirty []float64
	for i := 0; i < 5; i++ {
		clean = append(clean, cold(2*i))
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO sales VALUES (%d, 1, 0.25, 1990)", 9000000+i)); err != nil {
			l.fail(err)
		}
		dirty = append(dirty, cold(2*i+1))
	}
	l.values["catalog.reanalyze_ms"] = median(dirty) - median(clean)
}

// table1Probe times the paper's experiments under all three strategies,
// fastest of reps, Original = 100. With at least three repetitions to take
// the fastest of, it also asserts the paper's regimes, loosely.
func (l *layers) table1Probe(db *starmagic.DB, ids []string, reps int) {
	ctx := context.Background()
	for _, id := range ids {
		best := map[starmagic.Strategy]float64{}
		digests := map[starmagic.Strategy]uint64{}
		for _, s := range []starmagic.Strategy{starmagic.StrategyOriginal, starmagic.StrategyCorrelated, starmagic.StrategyEMST} {
			p, err := db.PrepareContext(ctx, table1SQL[id], starmagic.WithStrategy(s))
			if err != nil {
				l.fail(err)
				return
			}
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				res, err := p.ExecuteContext(ctx)
				d := time.Since(t0).Seconds()
				if err != nil {
					l.fail(err)
					return
				}
				if rep == 0 || d < best[s] {
					best[s] = d
				}
				digests[s] = digest(textRows(res.Rows))
			}
		}
		l.attempted++
		emst := 100 * best[starmagic.StrategyEMST] / best[starmagic.StrategyOriginal]
		corr := 100 * best[starmagic.StrategyCorrelated] / best[starmagic.StrategyOriginal]
		l.values["table1."+id+".emst_pct"] = emst
		l.values["table1."+id+".correlated_pct"] = corr
		switch {
		case digests[starmagic.StrategyEMST] != digests[starmagic.StrategyOriginal] ||
			digests[starmagic.StrategyCorrelated] != digests[starmagic.StrategyOriginal]:
			l.fail(fmt.Errorf("table 1 %s: the three strategies return different rows", id))
		case reps < 3:
		case emst > 120:
			l.fail(fmt.Errorf("table 1 %s: EMST takes %.0f%% of Original, want at most 120%%", id, emst))
		case (id == "C" || id == "D") && corr <= 100:
			l.fail(fmt.Errorf("table 1 %s: Correlated takes %.0f%% of Original, want more", id, corr))
		}
	}
}

// walProbe times the log's own calls on a scratch directory: buffering one
// commit record and waiting for its fsync, one committer at a time.
func (l *layers) walProbe(dir string) {
	log, err := wal.Open(dir, nil, wal.Options{Policy: wal.SyncCommit})
	if err != nil {
		l.fail(err)
		return
	}
	defer log.Close()
	ops := []wal.Op{{Table: "sales", Row: datum.Row{datum.Int(1), datum.Int(1), datum.Float(0.25), datum.Int(1990)}}}
	var appendUS, waitUS []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		seq, err := log.AppendCommit(uint64(i+1), ops)
		t1 := time.Now()
		if err == nil {
			err = log.WaitDurable(seq)
		}
		if err != nil {
			l.fail(err)
			return
		}
		appendUS = append(appendUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		waitUS = append(waitUS, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	l.values["wal.append_us"] = median(appendUS)
	l.values["wal.durable_wait_us"] = median(waitUS)
}

// finish reduces spans and per-operation samples to the per-layer metrics.
func (l *layers) finish() {
	for _, name := range []string{"sql.parse", "semant.bind", "rewrite.phase1", "rewrite.phase3",
		"opt.planopt1", "opt.planopt2", "core.emst", "plan.lower", "exec.execute",
		"storage.view", "engine.prepare_hit", "engine.commit"} {
		l.values[name+"_us"] = median(l.tr.durations(name))
	}
	for k, v := range l.perOp {
		l.values[k] = median(v)
	}
	// A share of operations is a mean of 0s and 1s, not a median.
	if s := l.perOp["core.used_emst_share"]; len(s) > 0 {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		l.values["core.used_emst_share"] = sum / float64(len(s))
	}
	l.values["rewrite.fire_ratio"] = ratio(l.values["rewrite.rule_fires"], l.values["rewrite.rule_attempts"])
	l.values["exec.examined_per_out"] = ratio(l.values["exec.rows_examined"], l.values["exec.rows_out"])
}

// wireProbes times what only the wire adds: a COM_PING round trip (socket and
// framing, no engine), and a large result streamed over the wire against the
// same cursor drained in process.
func (l *layers) wireProbes(srv *server, db *starmagic.DB) {
	c, err := srv.dial()
	if err != nil {
		l.fail(err)
		return
	}
	defer c.Quit()
	var pings []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if err := c.Ping(); err != nil {
			l.fail(err)
			return
		}
		pings = append(pings, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	l.values["wire.ping_us"] = median(pings)
	l.values["wire.overhead_us"] = median(l.pkWireUS) - median(l.pkEmbeddedUS)

	const rows = 8192
	text := fmt.Sprintf("SELECT saleid, deptno, amount, yr FROM sales WHERE saleid <= %d", rows)
	st, err := c.Prepare(text)
	if err != nil {
		l.fail(err)
		return
	}
	p, err := db.PrepareContext(context.Background(), text)
	if err != nil {
		l.fail(err)
		return
	}
	var overWire, inProcess []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		rs, err := c.Execute(st)
		overWire = append(overWire, float64(time.Since(t0).Nanoseconds()))
		if err != nil || len(rs.Rows) != rows {
			l.fail(fmt.Errorf("%d-row result over the wire: %d rows, %v", rows, len(rs.Rows), err))
			return
		}
		t0 = time.Now()
		cur, err := p.ExecuteRows(context.Background())
		n := 0
		for err == nil && cur.Next() {
			n++
		}
		if err == nil {
			err = cur.Err()
			cur.Close()
		}
		inProcess = append(inProcess, float64(time.Since(t0).Nanoseconds()))
		if err != nil || n != rows {
			l.fail(fmt.Errorf("%d-row cursor in process: %d rows, %v", rows, n, err))
			return
		}
	}
	l.values["wire.encode_ns_row"] = (median(overWire) - median(inProcess)) / rows
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	total := int64(0)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// recoveryProbe copies a data directory as a crash left it and times
// engine.OpenDir on the copy, per megabyte of checkpoint and log.
func (l *layers) recoveryProbe(dataDir, scratch string) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		l.fail(err)
		return
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		l.fail(err)
		return
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dataDir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(scratch, e.Name()), b, 0o644)
		}
		if err != nil {
			l.fail(err)
			return
		}
	}
	mb := float64(dirBytes(scratch)) / (1 << 20)
	t0 := time.Now()
	db, err := engine.OpenDir(scratch)
	ms := time.Since(t0).Seconds() * 1e3
	if err != nil {
		l.fail(fmt.Errorf("recover a copy of the crashed directory: %w", err))
		return
	}
	db.Close()
	l.values["wal.recovery_ms_per_mb"] = ratio(ms, mb)
}

// tracedPass measures the per-layer metrics of one workload.
func tracedPass(env *environment, w *workload, seed int64, seconds float64) (*layers, error) {
	l := newLayers()
	budget := time.Duration(seconds / 2 * float64(time.Second))
	writes := w.writes()
	var (
		ds  *dataset
		db  *starmagic.DB
		srv *server
		err error
	)
	if w.wire {
		// The server is opaque from outside: one span per round trip. What
		// happens beneath is measured on an in-process durable replica that
		// runs the same operation list.
		if ds, srv, err = setupWire(env); err != nil {
			return nil, err
		}
		defer srv.stop()
		dir, err := os.MkdirTemp(env.tmp, "replica-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if db, err = starmagic.OpenDir(filepath.Join(dir, "db")); err != nil {
			return nil, err
		}
		defer db.Close()
		db.SetDurability(starmagic.SyncCommit)
		if err := ds.load(db.Engine()); err != nil {
			return nil, err
		}
		budget /= 2
	} else {
		var e *embedded
		if ds, e, err = setupEmbedded(w); err != nil {
			return nil, err
		}
		db = e.db
	}
	ds.release()
	chk, err := newChecker(ds, writes)
	if err != nil {
		return nil, err
	}
	l.analyzeProbe(db)

	run := func(c client) *clientStats {
		st := &clientStats{salaries: map[int64]float64{}}
		drive(c, newOpGen(w, seed, 0), chk, time.Now().Add(budget), tracedOps, st)
		l.add(st.tally)
		return st
	}
	var wireStats *clientStats
	if w.wire {
		wc, err := srv.connect(w)
		if err != nil {
			return nil, err
		}
		wc.giveUpAt(time.Now().Add(budget + replyGrace))
		wireStats = run(&spanClient{inner: wc, l: l})
		sort.Float64s(wireStats.writeUS)
		l.values["wire.read_p50_us"] = median(wireStats.readUS)
		l.values["wire.write_p50_us"] = median(wireStats.writeUS)
		l.values["wire.write_p99_us"] = percentile(wireStats.writeUS, 99)
	}
	sc, err := newStagedClient(l, w, db)
	if err != nil {
		return nil, err
	}
	wal0, cache0 := db.Metrics().WAL, db.PlanCacheStats()
	run(sc)
	wal1, cache1 := db.Metrics().WAL, db.PlanCacheStats()
	// Share of reads served without running the optimizer; the prepare_hit
	// probes are cache hits and add no miss.
	l.values["engine.plan_cache_hit_ratio"] = 1 - ratio(float64(cache1.Misses-cache0.Misses), float64(sc.reads))
	l.values["wal.bytes_per_commit"] = ratio(float64(wal1.AppendedBytes-wal0.AppendedBytes), float64(wal1.Appends-wal0.Appends))
	l.values["wal.commits_per_fsync"] = ratio(float64(wal1.Synced-wal0.Synced), float64(wal1.Fsyncs-wal0.Fsyncs))

	l.plainEmbedded(w, db, seed, budget/4)
	l.storageProbe(db)
	// Fastest of five at the benchmark's run length, fewer on short runs.
	l.table1Probe(db, w.table1, min(5, max(1, int(seconds/2))))
	if w.wire {
		l.wireProbes(srv, db)
	}
	if writes { // only wire workloads write
		l.reanalyzeProbe(db)
		scratch, err := os.MkdirTemp(env.tmp, "scratch-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
		l.walProbe(filepath.Join(scratch, "wal"))
		checked, recovery := srv.crashCheck(ds, []*clientStats{wireStats}, func(dataDir string) {
			l.recoveryProbe(dataDir, filepath.Join(scratch, "recover"))
		})
		l.add(checked)
		l.values["wal.recovery_s"] = recovery.Seconds()
	}
	l.finish()
	return l, l.tr.write(filepath.Join(env.out, "trace-"+w.name+".json"))
}
