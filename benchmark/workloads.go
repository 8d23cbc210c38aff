package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
)

const empSalaryCol = 3

// shape is one query text with `?` placeholders and the rule that draws its
// bindings from the workload's random stream; n is the operation's place in
// its client's list. key names the expected answer.
type shape struct {
	id   string
	sql  string
	bind func(r *rand.Rand, n int) (args []any, key string)
}

// The small Table-1 shapes (A, F, G, H) carry one extra conjunct that is
// true on every row (mgrno is at least 1001, totalsal is positive). Its
// literal makes the ad-hoc text space about 1.5 million statements, far
// beyond the 1 024-entry plan cache, without widening the answer space: the
// frozen digest depends on the first binding alone.
var shapes = map[string]*shape{
	"A": {id: "A",
		sql: `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
 WHERE d.deptno = v.workdept AND d.deptname = ? AND d.mgrno > ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			name := deptName(1 + r.Intn(departments))
			return []any{name, int64(r.Intn(1000))}, "A|" + name
		}},
	"F": {id: "F",
		sql: `SELECT d.deptname, v.headcount FROM department d, avgSalary v
 WHERE d.deptno = v.workdept AND d.deptno = ? AND d.mgrno > ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			d := int64(1 + r.Intn(departments))
			return []any{d, int64(r.Intn(1000))}, fmt.Sprintf("F|%d", d)
		}},
	"G": {id: "G",
		sql: `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
 WHERE d.deptno = v.deptno AND d.deptname = ? AND d.mgrno > ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			name := deptName(1 + r.Intn(departments))
			return []any{name, int64(r.Intn(1000))}, "G|" + name
		}},
	"H": {id: "H",
		sql: `SELECT v.region, v.totalsal FROM regionPay v
 WHERE v.region = ? AND v.totalsal > ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			region := regionName(r.Intn(regions))
			return []any{region, int64(-1 - r.Intn(1000000))}, "H|" + region
		}},
	"B": {id: "B",
		sql: `SELECT e.empname, v.total FROM employee e, deptSales v
 WHERE e.workdept = v.deptno AND e.empno < ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			k := int64(1010 + r.Intn(31))
			return []any{k}, fmt.Sprintf("B|%d", k)
		}},
	"C": {id: "C",
		sql: `SELECT d.deptname, v.total FROM department d, deptOrders v
 WHERE d.deptno = v.deptno AND d.deptno < ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			k := int64(4 + r.Intn(7))
			return []any{k}, fmt.Sprintf("C|%d", k)
		}},
	"D": {id: "D",
		sql: `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
 WHERE d.deptno = v.deptno AND d.deptno <= ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			k := int64(100 + r.Intn(41))
			return []any{k}, fmt.Sprintf("D|%d", k)
		}},
	"E": {id: "E",
		sql: `SELECT e.empname, v.total FROM employee e, deptSales v
 WHERE e.workdept = v.deptno AND (e.empno < ? OR e.empno > ?)`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			lo, hi := int64(1005+r.Intn(21)), int64(148990+r.Intn(21))
			return []any{lo, hi}, fmt.Sprintf("E|%d|%d", lo, hi)
		}},
	"TC": {id: "TC",
		sql: `SELECT t.dst FROM tc t WHERE t.src = ?`,
		// A lookup costs in proportion to how far down its chain it starts,
		// so start positions rotate: every run has the same share of each.
		bind: func(r *rand.Rand, n int) ([]any, string) {
			src := int64(r.Intn(tcChains)*tcStride + n%(tcChainLen-1))
			return []any{src}, fmt.Sprintf("TC|%d", src)
		}},
	"PK": {id: "PK",
		sql: `SELECT empno, empname, workdept, salary, jobcode FROM employee WHERE empno = ?`,
		bind: func(r *rand.Rand, _ int) ([]any, string) {
			empno := int64((1+r.Intn(departments))*1000 + 1 + r.Intn(empsPerDept))
			return []any{empno}, fmt.Sprintf("PK|%d", empno)
		}},
}

// frozenShapes are the shapes whose answers live in expected/digests.txt.
var frozenShapes = []string{"A", "F", "G", "H", "B", "C", "D", "E"}

// table1SQL are the paper's Table-1 experiments with their literals, as
// internal/bench states them; the table1.* metrics time these texts.
var table1SQL = map[string]string{
	"A": `SELECT d.deptname, v.avgsal FROM department d, avgSalary v
 WHERE d.deptno = v.workdept AND d.deptname = 'Planning'`,
	"B": `SELECT e.empname, v.total FROM employee e, deptSales v
 WHERE e.workdept = v.deptno AND e.empno < 1030`,
	"C": `SELECT d.deptname, v.total FROM department d, deptOrders v
 WHERE d.deptno = v.deptno AND d.deptno < 7`,
	"D": `SELECT d.deptname, v.total FROM department d, deptOrdersJ v
 WHERE d.deptno = v.deptno AND d.deptno <= 120`,
	"E": `SELECT e.empname, v.total FROM employee e, deptSales v
 WHERE e.workdept = v.deptno AND (e.empno < 1013 OR e.empno > 149000)`,
	"F": `SELECT d.deptname, v.headcount FROM department d, avgSalary v
 WHERE d.deptno = v.workdept AND d.deptno = 3`,
	"G": `SELECT d.deptname, v.deptno, v.avgamount FROM department d, deptAvgSales v
 WHERE d.deptno = v.deptno AND d.deptname = 'Planning'`,
	"H": `SELECT v.region, v.totalsal FROM regionPay v WHERE v.region = 'R03'`,
}

// workload is one named traffic mix. Later issues refer to these names.
type workload struct {
	name string
	why  string
	// wire workloads drive a child magicserver over loopback TCP with
	// wireClients connections; the others call the engine in process from
	// one goroutine. Both are closed loops: a caller waits for its reply.
	wire bool
	// adhoc sends every read as fresh SQL text with literals; otherwise
	// reads are prepared once and executed with bindings.
	adhoc bool
	// mix is the share of each kind of operation: a shape id, "insert" or
	// "update". The kinds follow each other in a fixed, evenly spread cycle
	// (see cycle), so every run of a workload has exactly the same mix and
	// only the bindings differ with the seed.
	mix []weighted
	// table1 lists the paper experiments the traced pass of this workload
	// times under all three strategies.
	table1 []string
	// ungated workloads are not listed in BENCHMARK.json: the driver's time
	// limit pays for four workloads at a run length that is steady on a
	// shared host, not for six, and a gated workload must never fail an
	// operation (see wire_mixed). They still run by name and in the suite.
	ungated bool
}

type weighted struct {
	kind   string
	weight int
}

const (
	kindInsert = "insert"
	kindUpdate = "update"
)

// cycle spreads the mix over one period by smooth weighted round-robin: each
// step every kind gains its weight, the richest kind is issued and pays the
// total.
func (w *workload) cycle() []string {
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	credit := make([]int, len(w.mix))
	out := make([]string, 0, total)
	for len(out) < total {
		best := 0
		for i, m := range w.mix {
			credit[i] += m.weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		out = append(out, w.mix[best].kind)
	}
	return out
}

// readShapes lists the shapes the workload reads.
func (w *workload) readShapes() []string {
	var out []string
	for _, m := range w.mix {
		if m.kind != kindInsert && m.kind != kindUpdate {
			out = append(out, m.kind)
		}
	}
	return out
}

// clients is the number of concurrent callers.
func (w *workload) clients() int {
	if w.wire {
		return wireClients
	}
	return 1
}

// writes reports whether the workload changes data.
func (w *workload) writes() bool { return len(w.readShapes()) < len(w.mix) }

const wireClients = 2 // never more clients than cores on the 2-core box

var workloads = []*workload{
	{name: "t1_small_adhoc", adhoc: true,
		why: "Table-1 shapes A,F,G,H as fresh literal SQL: nearly every op is a cold prepare, so parse/bind/rewrite/plan-opt/EMST/lower dominate",
		mix: []weighted{{"A", 1}, {"F", 1}, {"G", 1}, {"H", 1}}},
	{name: "t1_small_prepared",
		why:    "the same four shapes prepared once and executed with bindings: bypasses the optimizer, leaving per-execution fixed overhead",
		mix:    []weighted{{"A", 1}, {"F", 1}, {"G", 1}, {"H", 1}},
		table1: []string{"A", "F", "G", "H"}},
	{name: "t1_large",
		why:    "Table-1 shapes B,C,D,E prepared: execution-bound group-by and hash joins over 22 500-row facts; optimizer and wire do nothing",
		mix:    []weighted{{"B", 1}, {"C", 1}, {"D", 1}, {"E", 1}},
		table1: []string{"B", "C", "D", "E"}},
	{name: "tc_recursive", ungated: true,
		why: "transitive closure from one source over a recursive view: semi-naive fixpoint and magic seed through recursion, not aggregation",
		mix: []weighted{{"TC", 1}}},
	{name: "wire_read", wire: true,
		why: "child magicserver, 2 connections, 80% PK lookups + 20% shape-A view lookups via COM_STMT_EXECUTE: framing and the cached-plan path, WAL idle",
		mix: []weighted{{"PK", 4}, {"A", 1}}},
	// Not gated: about one 28 s run in twenty trips a race in the engine
	// that fails an UPDATE and then blocks every later commit (README.md,
	// "Learned while sizing the workloads").
	{name: "wire_mixed", wire: true, ungated: true,
		why: "wire_read's reads as 80% of traffic plus 15% durable INSERTs and 5% BEGIN/UPDATE/COMMIT: commit, MVCC churn and WAL fsync beside reads",
		mix: []weighted{{"PK", 64}, {"A", 16}, {kindInsert, 15}, {kindUpdate, 5}}},
}

// gatedWorkloads are the workloads BENCHMARK.json lists.
func gatedWorkloads() []*workload {
	var out []*workload
	for _, w := range workloads {
		if !w.ungated {
			out = append(out, w)
		}
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opUpdate
)

// op is one operation of a workload's list.
type op struct {
	kind  opKind
	shape *shape
	// text is the SQL sent for an ad-hoc read or a write; prepared reads
	// send shape.sql once and args per execution.
	text string
	args []any
	key  string
	// Writes: the row a later read must find (sales insert), or the
	// employee and the salary it must end with (update).
	row    [4]string
	empno  int64
	salary float64
}

// opGen yields one client's operation list. The list is a pure function of
// (workload, seed, client): the program under test sees nothing else of the
// seed.
type opGen struct {
	w        *workload
	rng      *rand.Rand
	client   int
	cycle    []string
	pos      int
	nextSale int64
}

func newOpGen(w *workload, seed int64, client int) *opGen {
	cycle := w.cycle()
	return &opGen{
		w:      w,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		client: client,
		cycle:  cycle,
		// Clients start at different points of the cycle, so their writes
		// do not march in step.
		pos:      client * len(cycle) / wireClients,
		nextSale: int64(client+1) * 1000000,
	}
}

func (g *opGen) next() op {
	r := g.rng
	kind := g.cycle[g.pos%len(g.cycle)]
	g.pos++
	switch kind {
	case kindInsert:
		// New sale ids start far above the loaded ones and are disjoint per
		// connection.
		g.nextSale++
		row := [4]string{
			strconv.FormatInt(g.nextSale, 10),
			strconv.Itoa(1 + r.Intn(departments)),
			strconv.FormatFloat(float64(r.Intn(40000))/4, 'g', -1, 64),
			strconv.Itoa(1990 + r.Intn(5)),
		}
		amount := row[2]
		if !strings.Contains(amount, ".") {
			amount += ".0"
		}
		return op{kind: opInsert, row: row,
			text: fmt.Sprintf("INSERT INTO sales VALUES (%s, %s, %s, %s)", row[0], row[1], amount, row[3])}
	case kindUpdate:
		// Each connection updates its own half of the departments, so
		// write-write conflicts cannot occur.
		span := departments / wireClients
		dept := 1 + g.client*span + r.Intn(span)
		empno := int64(dept*1000 + 1 + r.Intn(empsPerDept))
		salary := float64(20000 + r.Intn(80000))
		return op{kind: opUpdate, empno: empno, salary: salary,
			text: fmt.Sprintf("UPDATE employee SET salary = %.1f WHERE empno = %d", salary, empno)}
	}
	sh := shapes[kind]
	args, key := sh.bind(r, g.pos)
	o := op{kind: opRead, shape: sh, args: args, key: key}
	if g.w.adhoc {
		o.text = literalize(sh.sql, args)
	}
	return o
}

// literalize substitutes SQL literals for the `?` placeholders of a query.
func literalize(sql string, args []any) string {
	var sb strings.Builder
	i := 0
	for _, c := range sql {
		if c != '?' {
			sb.WriteRune(c)
			continue
		}
		switch v := args[i].(type) {
		case string:
			sb.WriteString("'" + strings.ReplaceAll(v, "'", "''") + "'")
		default:
			fmt.Fprint(&sb, v)
		}
		i++
	}
	return sb.String()
}

// opListHash fingerprints the first n operations of every client's list.
func opListHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < w.clients(); c++ {
		g := newOpGen(w, seed, c)
		for i := 0; i < n; i++ {
			o := g.next()
			fmt.Fprintf(h, "%d|%s|%s|%v\n", o.kind, o.key, o.text, o.args)
		}
	}
	return h.Sum64()
}
