package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

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
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.Format()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows, res.Plan.Counters, after.TotalAlloc - before.TotalAlloc
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
			rendered := make([]string, len(got))
			for i, r := range got {
				parts := make([]string, len(r))
				for j, d := range r {
					parts[j] = d.Format()
				}
				rendered[i] = strings.Join(parts, "|")
			}
			sort.Strings(rendered)
			gotS := strings.Join(rendered, ";")
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
