// Vectorized execution of select pipelines: when lowering marked a node
// Vec (a driving base-table scan with kernel-compilable filters, or a
// materialized driver whose next stage hashes a base table; hash stages
// keyed on plain columns/constants), the executor compiles the filters to
// typed column kernels over the storage layer's zero-copy columnar snapshot
// and keys the hash joins on fixed-width normalized words instead of
// AppendKey byte strings. String columns carry intern ids, so string
// equality, hashing, and join keys are integer compares.
//
// The compiled operator is a drop-in replacement for selectPipeOp with
// identical semantics, row order and counter accounting (BaseRows, BoxEvals,
// HashBuilds/HashProbes, OutputRows, MaxRows, cancellation): any
// expression or type the compiler cannot prove kernel-safe fails the
// compile and the node silently falls back to the row pipeline. Div/Mod
// stay row-at-a-time on purpose — their data-dependent divide-by-zero
// errors must surface exactly when the row is reached, which chunked
// evaluation cannot reproduce.
package exec

import (
	"sync"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/storage"
	"starmagic/internal/vec"
)

// vecBatch is the vectorized chunk size: large enough to amortize kernel
// dispatch, small enough that a LIMIT consumer over-reads at most one
// chunk beyond the row pipeline's 64-row batches.
const vecBatch = 512

// vecScratch is what a vectorized operator works in during one open: its
// vecBatch-row selection vectors, verdicts, key words, NULL masks, id columns
// and VM temporaries, its index stages' probed keys, and the arrays a build
// over a materialized driver sizes to its tables. It comes from
// scratchPool at open and goes back at close, so an execution of a cached
// plan reuses the scratch of earlier ones instead of allocating its own. No
// batch handed to a consumer lives in it.
type vecScratch struct {
	i32   slab[int32]
	u64   slab[uint64]
	i64   slab[int64]
	f64   slab[float64]
	bl    slab[bool]
	u8    slab[uint8]
	tv    slab[datum.TV]
	index []*indexRuns
	nidx  int
	// Sized arrays of driver builds (see buildOnDriver).
	ai32 arrays[int32]
	au64 arrays[uint64]
	au8  arrays[uint8]
	abl  arrays[bool]
}

var scratchPool = sync.Pool{New: func() any { return new(vecScratch) }}

// slab hands out consecutive vecBatch-element slices of one array. Once the
// array is used up, take allocates; reset then sizes the array to everything
// taken, so the next open of the pooled scratch allocates nothing.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) take() []T {
	lo := s.off
	s.off += vecBatch
	if s.off > len(s.buf) {
		return make([]T, vecBatch)
	}
	return s.buf[lo:s.off:s.off]
}

func (s *slab[T]) reset() {
	if s.off > len(s.buf) {
		s.buf = make([]T, s.off)
	}
	s.off = 0
}

// arrays hands out arrays of any length, kept across opens: the k-th taken
// in an open reuses the k-th of earlier opens when it is large enough. Their
// contents are whatever an earlier open left; takers overwrite or clear them.
type arrays[T any] struct {
	bufs [][]T
	n    int
}

func (a *arrays[T]) take(n int) []T {
	if a.n == len(a.bufs) {
		a.bufs = append(a.bufs, nil)
	}
	if cap(a.bufs[a.n]) < n {
		a.bufs[a.n] = make([]T, n)
	}
	a.n++
	return a.bufs[a.n-1][:n:n]
}

// indexRuns is one index stage's state for an open (see lookupKey): run holds
// the surviving row ids of each key probed, one -1-terminated run per key,
// and seen maps the key to the start of its run (-1: no row survived).
type indexRuns struct {
	seen map[vec.Key]int32
	run  []int32
}

func (sc *vecScratch) takeIndex() *indexRuns {
	if sc.nidx == len(sc.index) {
		sc.index = append(sc.index, &indexRuns{seen: map[vec.Key]int32{}})
	}
	sc.nidx++
	return sc.index[sc.nidx-1]
}

func (sc *vecScratch) release() {
	sc.i32.reset()
	sc.u64.reset()
	sc.i64.reset()
	sc.f64.reset()
	sc.bl.reset()
	sc.u8.reset()
	sc.tv.reset()
	sc.nidx = 0
	sc.ai32.n, sc.au64.n, sc.au8.n, sc.abl.n = 0, 0, 0, 0
	scratchPool.Put(sc)
}

// scratchUser is a compiled predicate or VM node that works in scratch.
type scratchUser interface{ useScratch(sc *vecScratch) }

// tickN is the bulk form of tick for chunked loops: it advances the
// amortized cancellation counter by n rows and polls if a poll boundary
// was crossed, so a vectorized scan keeps the row pipeline's cancellation
// latency without a per-row call.
func (ev *Evaluator) tickN(n int) error {
	if ev.ctxDone == nil {
		return nil
	}
	before := ev.ticks / ctxPollInterval
	ev.ticks += n
	if ev.ticks/ctxPollInterval == before {
		return nil
	}
	return ev.ctxErr()
}

// vecClass partitions types into key-comparability classes: 1 numeric,
// 2 string, 3 boolean, 0 unknown/unsupported. Only same-class operands
// compile — it is what keeps NormNum float bits and intern ids from ever
// meeting in one hash-key position.
func vecClass(t datum.Type) int {
	switch t {
	case datum.TInt, datum.TFloat:
		return 1
	case datum.TString:
		return 2
	case datum.TBool:
		return 3
	}
	return 0
}

// vecPred is one compiled driving-stage predicate: eval fills tvs[k] with
// the three-valued verdict for scan row sel[k]. Compiled predicates cannot
// fail at runtime — anything that could (unbound params, type errors,
// Div/Mod) fails the compile instead.
type vecPred interface {
	eval(o *vecCols, sel vec.Sel, tvs []datum.TV)
}

// constTVPred is a predicate folded to a constant at compile time.
type constTVPred struct{ tv datum.TV }

func (p *constTVPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	for k := range sel {
		tvs[k] = p.tv
	}
}

// isNullPred is IS [NOT] NULL over a scan column.
type isNullPred struct {
	col    int
	negate bool
}

func (p *isNullPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	vec.IsNullTV(o.tbl.Cols[p.col].Nulls, p.negate, sel, tvs)
}

// notPred is NOT over a compiled predicate.
type notPred struct{ x vecPred }

func (p *notPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	p.x.eval(o, sel, tvs)
	vec.NotTV(tvs[:len(sel)])
}

// boolColPred treats a BOOLEAN column as a predicate (WHERE flag).
type boolColPred struct{ col int }

func (p *boolColPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	c := &o.tbl.Cols[p.col]
	vec.CmpBoolConst(c.Bs, c.Nulls, datum.EQ, true, sel, tvs)
}

// logicPred is n-ary AND/OR. Later arguments are evaluated only over the
// sub-selection where the accumulator is not yet decisive, reproducing the
// row pipeline's short-circuit exactly — including which rows never see
// later arguments at all.
type logicPred struct {
	and  bool
	args []vecPred

	subSel vec.Sel
	idx    []int32
	subTVs []datum.TV
}

func (p *logicPred) useScratch(sc *vecScratch) {
	p.subSel, p.idx, p.subTVs = sc.i32.take()[:0], sc.i32.take()[:0], sc.tv.take()
}

func (p *logicPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	p.args[0].eval(o, sel, tvs)
	decisive := datum.True
	if p.and {
		decisive = datum.False
	}
	for _, a := range p.args[1:] {
		sub := p.subSel[:0]
		idx := p.idx[:0]
		for k, i := range sel {
			if tvs[k] != decisive {
				sub = append(sub, i)
				idx = append(idx, int32(k))
			}
		}
		if len(sub) == 0 {
			break
		}
		subTVs := p.subTVs[:len(sub)]
		a.eval(o, sub, subTVs)
		if p.and {
			for j, k := range idx {
				tvs[k] = tvs[k].And(subTVs[j])
			}
		} else {
			for j, k := range idx {
				tvs[k] = tvs[k].Or(subTVs[j])
			}
		}
	}
}

// Numeric comparison predicates over plain columns and constants dispatch
// straight to the typed kernels.

type cmpNumColConstPred struct {
	col int
	op  datum.CmpOp
	ci  int64
	cf  float64
	// rhsInt: the constant is integral and the column is INT, so the
	// compare runs on int64 (exact for values beyond 2^53).
	rhsInt bool
}

func (p *cmpNumColConstPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	c := &o.tbl.Cols[p.col]
	switch {
	case p.rhsInt:
		vec.CmpI64Const(c.I64, c.Nulls, p.op, p.ci, sel, tvs)
	case c.T == datum.TInt:
		vec.CmpI64ConstF(c.I64, c.Nulls, p.op, p.cf, sel, tvs)
	default:
		vec.CmpF64Const(c.F64, c.Nulls, p.op, p.cf, sel, tvs)
	}
}

type cmpNumColColPred struct {
	a, b int
	op   datum.CmpOp
}

func (p *cmpNumColColPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	ca, cb := &o.tbl.Cols[p.a], &o.tbl.Cols[p.b]
	vec.CmpNumNum(ca.I64, ca.F64, ca.Nulls, p.op, cb.I64, cb.F64, cb.Nulls, sel, tvs)
}

// cmpStrColConstPred compares a string column against a constant. Equality
// runs purely on intern ids; ordering resolves through the shared string
// snapshot. The constant's id is resolved lazily through Lookup — a miss
// proves no stored string equals it.
type cmpStrColConstPred struct {
	col      int
	op       datum.CmpOp
	rhs      string
	resolved bool
	rhsID    uint32
	present  bool
}

func (p *cmpStrColConstPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	if !p.resolved {
		p.rhsID, p.present = o.tab.Lookup(p.rhs)
		p.resolved = true
	}
	c := &o.tbl.Cols[p.col]
	switch p.op {
	case datum.EQ, datum.NE:
		vec.CmpIDConstEQ(c.IDs, c.Nulls, p.rhsID, p.present, p.op == datum.NE, sel, tvs)
	default:
		vec.CmpStrConstOrd(c.IDs, c.Nulls, o.strs, p.op, p.rhs, p.rhsID, p.present, sel, tvs)
	}
}

type cmpStrColColPred struct {
	a, b int
	op   datum.CmpOp
}

func (p *cmpStrColColPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	ca, cb := &o.tbl.Cols[p.a], &o.tbl.Cols[p.b]
	switch p.op {
	case datum.EQ, datum.NE:
		vec.CmpIDIDEQ(ca.IDs, ca.Nulls, cb.IDs, cb.Nulls, p.op == datum.NE, sel, tvs)
	default:
		vec.CmpStrStrOrd(ca.IDs, ca.Nulls, cb.IDs, cb.Nulls, o.strs, p.op, sel, tvs)
	}
}

type cmpBoolColConstPred struct {
	col int
	op  datum.CmpOp
	rhs bool
}

func (p *cmpBoolColConstPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	c := &o.tbl.Cols[p.col]
	vec.CmpBoolConst(c.Bs, c.Nulls, p.op, p.rhs, sel, tvs)
}

type cmpBoolColColPred struct {
	a, b int
	op   datum.CmpOp
}

func (p *cmpBoolColColPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	ca, cb := &o.tbl.Cols[p.a], &o.tbl.Cols[p.b]
	vec.CmpBoolBool(ca.Bs, ca.Nulls, cb.Bs, cb.Nulls, p.op, sel, tvs)
}

// numExpr is one node of the compiled arithmetic VM (Add/Sub/Mul/Neg over
// columns, constants, and resolved parameters). isInt tracks the static
// result type with datum.Arith's promotion rule: int-int stays int64
// (wrapping like the row path), anything else runs in float64.
type numExpr struct {
	kind  int // numCol, numConst, numArith, numNeg
	isInt bool
	col   int
	null  bool // constant NULL
	ci    int64
	cf    float64
	aop   datum.ArithOp
	l, r  *numExpr

	bi  []int64
	bf  []float64
	bln []bool
}

// useScratch gives a VM node the buffers its parent evaluates it into.
func (n *numExpr) useScratch(sc *vecScratch) {
	n.bi, n.bf, n.bln = sc.i64.take(), sc.f64.take(), sc.bl.take()
}

const (
	numCol = iota
	numConst
	numArith
	numNeg
)

func (n *numExpr) evalI(o *vecCols, sel vec.Sel, out []int64, nulls []bool) {
	switch n.kind {
	case numCol:
		c := &o.tbl.Cols[n.col]
		for k, i := range sel {
			out[k] = c.I64[i]
			nulls[k] = c.Nulls[i]
		}
	case numConst:
		for k := range sel {
			out[k] = n.ci
			nulls[k] = n.null
		}
	case numNeg:
		n.l.evalI(o, sel, out, nulls)
		for k := range sel {
			out[k] = -out[k]
		}
	case numArith:
		lb, rb := n.l.bi[:len(sel)], n.r.bi[:len(sel)]
		ln, rn := n.l.bln[:len(sel)], n.r.bln[:len(sel)]
		n.l.evalI(o, sel, lb, ln)
		n.r.evalI(o, sel, rb, rn)
		switch n.aop {
		case datum.Add:
			for k := range sel {
				out[k] = lb[k] + rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Sub:
			for k := range sel {
				out[k] = lb[k] - rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Mul:
			for k := range sel {
				out[k] = lb[k] * rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		}
	}
}

func (n *numExpr) evalF(o *vecCols, sel vec.Sel, out []float64, nulls []bool) {
	switch n.kind {
	case numCol:
		c := &o.tbl.Cols[n.col]
		if c.T == datum.TInt {
			for k, i := range sel {
				out[k] = float64(c.I64[i])
				nulls[k] = c.Nulls[i]
			}
		} else {
			for k, i := range sel {
				out[k] = c.F64[i]
				nulls[k] = c.Nulls[i]
			}
		}
	case numConst:
		for k := range sel {
			out[k] = n.cf
			nulls[k] = n.null
		}
	case numNeg:
		n.l.evalF(o, sel, out, nulls)
		for k := range sel {
			out[k] = -out[k]
		}
	case numArith:
		if n.isInt {
			// Int-int arithmetic truncates in int64 before any float use.
			ib := n.bi[:len(sel)]
			n.evalI(o, sel, ib, nulls)
			for k := range sel {
				out[k] = float64(ib[k])
			}
			return
		}
		lb, rb := n.l.bf[:len(sel)], n.r.bf[:len(sel)]
		ln, rn := n.l.bln[:len(sel)], n.r.bln[:len(sel)]
		n.l.evalF(o, sel, lb, ln)
		n.r.evalF(o, sel, rb, rn)
		switch n.aop {
		case datum.Add:
			for k := range sel {
				out[k] = lb[k] + rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Sub:
			for k := range sel {
				out[k] = lb[k] - rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		case datum.Mul:
			for k := range sel {
				out[k] = lb[k] * rb[k]
				nulls[k] = ln[k] || rn[k]
			}
		}
	}
}

// numCmpPred compares two compiled arithmetic expressions: int64 compare
// when both sides are statically int (exact), float64 otherwise (matching
// datum.Compare's mixed-numeric promotion).
type numCmpPred struct {
	l, r *numExpr
	op   datum.CmpOp
}

func (p *numCmpPred) eval(o *vecCols, sel vec.Sel, tvs []datum.TV) {
	ltv, eqv, gtv := vec.SignTVs(p.op)
	n := len(sel)
	if p.l.isInt && p.r.isInt {
		lb, rb := p.l.bi[:n], p.r.bi[:n]
		ln, rn := p.l.bln[:n], p.r.bln[:n]
		p.l.evalI(o, sel, lb, ln)
		p.r.evalI(o, sel, rb, rn)
		for k := 0; k < n; k++ {
			switch {
			case ln[k] || rn[k]:
				tvs[k] = datum.Unknown
			case lb[k] < rb[k]:
				tvs[k] = ltv
			case lb[k] > rb[k]:
				tvs[k] = gtv
			default:
				tvs[k] = eqv
			}
		}
		return
	}
	lb, rb := p.l.bf[:n], p.r.bf[:n]
	ln, rn := p.l.bln[:n], p.r.bln[:n]
	p.l.evalF(o, sel, lb, ln)
	p.r.evalF(o, sel, rb, rn)
	for k := 0; k < n; k++ {
		switch {
		case ln[k] || rn[k]:
			tvs[k] = datum.Unknown
		case lb[k] < rb[k]:
			tvs[k] = ltv
		case lb[k] > rb[k]:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// Probe-source kinds for hash-stage key positions.
const (
	probeDrive = iota // column of the driving stage, read from its columnar table
	probeStage        // column of an earlier hash stage's matched row
	probeConst        // literal or resolved parameter
)

// probeSrc produces one 64-bit key word of a hash-stage probe.
type probeSrc struct {
	kind  int
	ord   int
	stage int // probeStage: index into o.stages
	class int

	d        datum.D // probeConst raw value
	resolved bool
	word     uint64
	null     bool
	missing  bool // string constant not interned: probes, never matches
}

// vecStage is one compiled hash-join or index stage. A hash stage keys its
// build rows by normalized fixed-width words in a flat vec.JoinTable. A
// base-table build side is keyed straight from its columnar snapshot (tbl is
// set, row ids are version positions); any other child is materialized and
// keyed row by row. An index stage builds nothing: it probes its relation's
// captured index once per distinct key (rel is set, row ids are version
// positions, and chain positions index the runs of ix).
type vecStage struct {
	st      *plan.Stage
	quant   *qgm.Quantifier
	keyOrds []int
	probes  []probeSrc
	filters []qgm.Expr // residuals run per extended tuple

	built bool
	rows  []datum.Row // build rows, indexed by the join table's row ids
	tbl   *vec.Table  // columnar build side (base-table child only)
	jt    *vec.JoinTable

	// onDriver marks the first stage behind a materialized driver, built
	// the other way round (see buildOnDriver): grp maps a driving row to
	// its key group (-1: NULL key), first a group to its first matching
	// build row, link a build row to the next one of its group (-1 none).
	onDriver   bool
	grp, first []int32
	link       []int32

	// Index stage (see lookupKey): cols are the stage table's columns, preds
	// the leading residuals compiled against them, which filter each bucket
	// (filters keeps the rest); ix holds this open's probed keys and runs.
	rel   *storage.RelView
	cols  vecCols
	preds []vecPred
	ix    *indexRuns
	key   datum.Row

	// Expansion state: in holds n tuples the stage extends (in[0] driving
	// row ids, in[t+1] the ids matched at stage t), heads their chain heads;
	// pos is the next tuple to extend, cur the one being extended and chain
	// its next candidate build row, or run position (-1 none).
	in     [][]int32
	heads  []int32
	n, pos int
	cur    int
	chain  int32
	ids    vec.Sel // nextIDs: matched build-row ids of the current batch
}

// vecProjSrc is one output column of the gather fast path: a plain column
// of the driving stage (stage -1) or of a hash stage's matched row.
type vecProjSrc struct {
	stage int
	ord   int
}

// vecCols is what compiled predicates and numeric expressions read: the
// columns of quantifier q's input and the strings their ids resolve to. The
// driving stage's filters compile against the driving columns, an index
// stage's bucket filters against its base table's.
type vecCols struct {
	q *qgm.Quantifier
	// colTypes are the columns' types as the kernels may read them (TNull:
	// not columnar); used, when set, marks the ones some compile asked for.
	colTypes []datum.Type
	used     []bool
	params   []datum.D

	tbl  vec.Table
	tab  *vec.Intern
	strs []string
	// users are the compiled nodes that take scratch at each open.
	users []scratchUser
}

// vecSelectOp is the vectorized replacement for selectPipeOp. The driving
// stage is either a base-table scan, read a chunk at a time through the
// compiled filter kernels, or a materialized input (a magic set, say)
// drained once per open; in that case the first hash stage is built over
// the driver's rows and its base table streams through them. Batches of
// joined tuples, held column-wise as row ids, extend through the hash and
// index stages a batch at a time, probe words read a column at a time. An
// index stage looks each distinct key up once per open and filters its
// bucket with column kernels. Tuples come out in the row pipeline's order:
// driving rows in order, each followed by its matches in build-row (or
// bucket) order. Compiled by tryVecSelect; any structural or type obstacle
// falls back to the row pipeline before the operator is ever constructed.
type vecSelectOp struct {
	r  *planRun
	n  *plan.Node
	ev *Evaluator

	// vecCols are the driving stage's columns; used marks the ones a
	// materialized driver transposes.
	vecCols
	drive *plan.Node // the driving stage's child
	// materialized: drive is not a base-table scan; its rows are drained at
	// open.
	materialized bool
	preds        []vecPred
	stages       []*vecStage
	projSrcs     []vecProjSrc // nil: project through env + projectRow

	rows []datum.Row
	vis  []int32 // visibility selection; nil when every stored version is visible

	env        Env
	chunkStart int
	visPos     int
	selA, selB vec.Sel
	tvs        []datum.TV
	src        []int32 // expand: the input tuple of each extension
	// fin holds the current batch of complete tuples, finPos the next one
	// to hand out of finN.
	fin          [][]int32
	finN, finPos int
	words        [vec.MaxKeyCols][]uint64
	nulls        []uint8
	miss         []bool
	done         bool
	out          []datum.Row
	// sc is the scratch held between open and close.
	sc *vecScratch
}

// tryVecSelect compiles a Vec-marked select node, returning nil when the
// node must run on the row pipeline (memory budget, NoVec, or a compile
// obstacle the lowering's structural check could not see, like unknown
// column classes, a computed driver column, or Div/Mod in a filter).
func (r *planRun) tryVecSelect(n *plan.Node) operator {
	ev := r.ev
	if !n.Vec || ev.Mem != nil || ev.NoVec {
		return nil
	}
	if len(n.Stages) == 0 || len(n.Scalars) > 0 || len(n.Subqs) > 0 || len(n.PostPreds) > 0 {
		return nil
	}
	st0 := &n.Stages[0]
	if st0.Access != plan.AccessStream {
		return nil
	}
	o := &vecSelectOp{r: r, n: n, ev: ev, drive: st0.Child}
	o.q, o.params = st0.Quant, ev.Params
	if t := st0.Child.Box.Table; st0.Child.Kind == plan.OpScan && t != nil {
		o.colTypes = columnTypes(t)
	} else {
		if len(st0.Residual) > 0 || len(n.Stages) < 2 {
			return nil
		}
		b := st0.Quant.Ranges
		o.materialized = true
		o.colTypes = make([]datum.Type, len(b.Output))
		o.used = make([]bool, len(b.Output))
		for i := range b.Output {
			o.colTypes[i] = storedType(b, i)
		}
	}
	for _, e := range st0.Residual {
		p, ok := o.compilePred(e)
		if !ok {
			return nil
		}
		o.preds = append(o.preds, p)
	}
	for i := 1; i < len(n.Stages); i++ {
		vs, ok := o.compileStage(&n.Stages[i])
		if !ok {
			return nil
		}
		o.stages = append(o.stages, vs)
	}
	if o.materialized && o.stages[0].rel == nil {
		// A hash stage behind a materialized driver hashes a base table on
		// driving columns alone, and is built over the driver.
		vs := o.stages[0]
		vs.onDriver = true
		if vs.st.Child.Kind != plan.OpScan {
			return nil
		}
		for _, ps := range vs.probes {
			if ps.kind != probeDrive {
				return nil
			}
		}
	}
	o.compileProj()
	o.out = make([]datum.Row, 0, streamBatch)
	o.fin = make([][]int32, len(o.stages)+1)
	for s, vs := range o.stages {
		vs.in = make([][]int32, s+1)
	}
	return o
}

// acquire takes the operator's scratch for this open (see vecScratch): the
// id columns expand fills get room for vecBatch tuples each.
func (o *vecSelectOp) acquire() {
	if o.sc != nil {
		return
	}
	sc := scratchPool.Get().(*vecScratch)
	o.sc = sc
	o.selA, o.selB, o.tvs = sc.i32.take()[:0], sc.i32.take()[:0], sc.tv.take()
	for _, u := range o.users {
		u.useScratch(sc)
	}
	if len(o.stages) == 0 {
		return
	}
	o.src = sc.i32.take()[:0]
	for k := range o.fin {
		o.fin[k] = sc.i32.take()[:0]
	}
	nk := 0
	for s, vs := range o.stages {
		if s > 0 { // stage 0 extends the source's own slices
			for k := range vs.in {
				vs.in[k] = sc.i32.take()[:0]
			}
		}
		vs.heads = sc.i32.take()
		nk = max(nk, len(vs.probes))
		if vs.rel != nil {
			vs.ix = sc.takeIndex()
			for _, u := range vs.cols.users {
				u.useScratch(sc)
			}
		}
	}
	for p := range nk {
		o.words[p] = sc.u64.take()
	}
	o.nulls, o.miss = sc.u8.take(), sc.bl.take()
}

// columnTypes returns the declared types of t's columns.
func columnTypes(t *catalog.Table) []datum.Type {
	types := make([]datum.Type, len(t.Columns))
	for i, c := range t.Columns {
		types[i] = c.Type
	}
	return types
}

// storedType returns the declared type of column ord of box b when every
// value it can hold is a stored value of a base-table column of that type —
// b is a base table, or the column reaches such columns through plain column
// references of select boxes, plain column grouping keys of group-by boxes
// (a group's key is its first row's value) and the branches of a union —
// and TNull otherwise. Storage widens every value to its column's type, so
// only such columns transpose into a typed vec.Col faithfully; a computed
// column may not hold its static type (a CASE with INT and FLOAT branches is
// FLOAT, yet yields INTs).
func storedType(b *qgm.Box, ord int) datum.Type {
	switch {
	case b.Kind == qgm.KindBaseTable:
		return b.Table.Columns[ord].Type
	case b.Recursive:
	case b.Kind == qgm.KindSelect:
		if cr, ok := b.Output[ord].Expr.(*qgm.ColRef); ok {
			return storedType(cr.Q.Ranges, cr.Ord)
		}
	case b.Kind == qgm.KindGroupBy:
		if ord < len(b.GroupBy) {
			if cr, ok := b.GroupBy[ord].(*qgm.ColRef); ok {
				return storedType(cr.Q.Ranges, cr.Ord)
			}
		}
	case b.Kind == qgm.KindUnion:
		t := storedType(b.Quantifiers[0].Ranges, ord)
		for _, q := range b.Quantifiers[1:] {
			if storedType(q.Ranges, ord) != t {
				return datum.TNull
			}
		}
		return t
	}
	return datum.TNull
}

// colType returns the type of column ord as the kernels may read it, or
// TNull when it cannot be read columnar. A materialized driver transposes
// exactly the columns some compile asked for here.
func (o *vecCols) colType(ord int) datum.Type {
	if ord >= len(o.colTypes) {
		return datum.TNull
	}
	t := o.colTypes[ord]
	if o.used != nil && t != datum.TNull {
		o.used[ord] = true
	}
	return t
}

// compileProj compiles the projection to a plain column gather when every
// output expression is a ColRef of a bound quantifier; otherwise emission
// binds env and uses projectRow.
func (o *vecSelectOp) compileProj() {
	srcs := make([]vecProjSrc, len(o.n.Box.Output))
	for i, oc := range o.n.Box.Output {
		cr, ok := oc.Expr.(*qgm.ColRef)
		if !ok {
			return
		}
		if cr.Q == o.q {
			srcs[i] = vecProjSrc{stage: -1, ord: cr.Ord}
			continue
		}
		found := false
		for s, vs := range o.stages {
			if vs.quant == cr.Q {
				srcs[i] = vecProjSrc{stage: s, ord: cr.Ord}
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
	o.projSrcs = srcs
}

// compileStage compiles one hash or index stage: key classes must pair up
// statically (numeric/string/boolean) so normalized words can never collide
// across classes, and every probe source must be a driving column, an
// earlier stage's column, or a constant.
func (o *vecSelectOp) compileStage(st *plan.Stage) (*vecStage, bool) {
	index := st.Access == plan.AccessIndex
	if !index && st.Access != plan.AccessHash || len(st.KeyMine) == 0 || len(st.KeyMine) > vec.MaxKeyCols {
		return nil, false
	}
	vs := &vecStage{st: st, quant: st.Quant, filters: st.Residual}
	for j := range st.KeyMine {
		cr, ok := st.KeyMine[j].(*qgm.ColRef)
		if !ok || cr.Q != st.Quant {
			return nil, false
		}
		mc := vecClass(qgm.TypeOf(cr))
		if mc == 0 {
			return nil, false
		}
		ps, ok := o.compileProbe(st.KeyOther[j])
		if !ok || ps.class != mc {
			return nil, false
		}
		vs.keyOrds = append(vs.keyOrds, cr.Ord)
		vs.probes = append(vs.probes, ps)
	}
	return vs, !index || o.compileIndex(vs)
}

// compileIndex prepares index stage vs. The view's capture of the stage's
// relation must hold the index: a view taken before CREATE INDEX lacks it,
// and the row pipeline, which probes the live index, runs the stage instead.
// The stage's leading residuals that compile to kernels over its own
// columns filter each bucket; the first that does not, and every residual
// after it, runs per extended tuple, so no residual is evaluated for a row
// the row pipeline would not evaluate it for.
func (o *vecSelectOp) compileIndex(vs *vecStage) bool {
	t := vs.quant.Ranges.Table
	rel, err := o.ev.relation(t)
	if err != nil || !rel.HasIndex(vs.st.IndexCols) {
		return false // the row pipeline reports err
	}
	vs.rel = rel
	vs.cols = vecCols{q: vs.quant, colTypes: columnTypes(t), params: o.params}
	for len(vs.filters) > 0 {
		p, ok := vs.cols.compilePred(vs.filters[0])
		if !ok {
			break
		}
		vs.preds = append(vs.preds, p)
		vs.filters = vs.filters[1:]
	}
	vs.key = make(datum.Row, len(vs.probes))
	return true
}

func (o *vecSelectOp) compileProbe(e qgm.Expr) (probeSrc, bool) {
	switch x := e.(type) {
	case *qgm.ColRef:
		if x.Q == o.q {
			c := vecClass(o.colType(x.Ord))
			if c == 0 {
				return probeSrc{}, false
			}
			return probeSrc{kind: probeDrive, ord: x.Ord, class: c}, true
		}
		for s := range o.stages {
			if o.stages[s].quant == x.Q {
				c := vecClass(qgm.TypeOf(x))
				if c == 0 {
					return probeSrc{}, false
				}
				return probeSrc{kind: probeStage, stage: s, ord: x.Ord, class: c}, true
			}
		}
		return probeSrc{}, false
	case *qgm.Const:
		return o.compileConstProbe(x.Val)
	case *qgm.Param:
		if x.Ord >= len(o.params) {
			return probeSrc{}, false
		}
		return o.compileConstProbe(o.params[x.Ord])
	}
	return probeSrc{}, false
}

func (o *vecSelectOp) compileConstProbe(d datum.D) (probeSrc, bool) {
	if d.IsNull() {
		// A NULL key component never matches; class is irrelevant but must
		// pair with the build side, so take it from the declared type.
		c := vecClass(d.T)
		if c == 0 {
			// Untyped NULL: probes always come up empty whatever the class.
			c = -1
		}
		return probeSrc{kind: probeConst, class: c, d: d, null: true, resolved: true}, true
	}
	c := vecClass(d.T)
	if c == 0 {
		return probeSrc{}, false
	}
	return probeSrc{kind: probeConst, class: c, d: d}, true
}

// compileVal classifies a comparison operand: a plain column (col >= 0), a
// constant (isConst), or a compiled arithmetic tree (num != nil).
type compiledVal struct {
	class   int
	col     int
	isConst bool
	d       datum.D
	num     *numExpr
}

func (o *vecCols) compileVal(e qgm.Expr) (compiledVal, bool) {
	switch x := e.(type) {
	case *qgm.ColRef:
		if x.Q != o.q {
			return compiledVal{}, false
		}
		c := vecClass(o.colType(x.Ord))
		if c == 0 {
			return compiledVal{}, false
		}
		return compiledVal{class: c, col: x.Ord}, true
	case *qgm.Const:
		return compiledVal{class: vecClass(x.Val.T), col: -1, isConst: true, d: x.Val}, true
	case *qgm.Param:
		if x.Ord >= len(o.params) {
			return compiledVal{}, false
		}
		d := o.params[x.Ord]
		return compiledVal{class: vecClass(d.T), col: -1, isConst: true, d: d}, true
	case *qgm.Arith, *qgm.Neg:
		num, ok := o.compileNum(e)
		if !ok {
			return compiledVal{}, false
		}
		return compiledVal{class: 1, col: -1, num: num}, true
	}
	return compiledVal{}, false
}

// scratched registers VM node n, which works in scratch.
func (o *vecCols) scratched(n *numExpr) *numExpr {
	o.users = append(o.users, n)
	return n
}

// compileNum compiles an arithmetic tree to the numeric VM. Div and Mod
// are rejected: their divide-by-zero errors are data-dependent and must
// fire lazily in row order, which the row pipeline provides.
func (o *vecCols) compileNum(e qgm.Expr) (*numExpr, bool) {
	switch x := e.(type) {
	case *qgm.ColRef:
		if x.Q != o.q {
			return nil, false
		}
		t := o.colType(x.Ord)
		if t != datum.TInt && t != datum.TFloat {
			return nil, false
		}
		return o.scratched(&numExpr{kind: numCol, col: x.Ord, isInt: t == datum.TInt}), true
	case *qgm.Const:
		n, ok := o.compileNumConst(x.Val)
		if !ok {
			return nil, false
		}
		return o.scratched(n), true
	case *qgm.Param:
		if x.Ord >= len(o.params) {
			return nil, false
		}
		n, ok := o.compileNumConst(o.params[x.Ord])
		if !ok {
			return nil, false
		}
		return o.scratched(n), true
	case *qgm.Neg:
		l, ok := o.compileNum(x.X)
		if !ok {
			return nil, false
		}
		return o.scratched(&numExpr{kind: numNeg, l: l, isInt: l.isInt}), true
	case *qgm.Arith:
		if x.Op != datum.Add && x.Op != datum.Sub && x.Op != datum.Mul {
			return nil, false
		}
		l, ok := o.compileNum(x.L)
		if !ok {
			return nil, false
		}
		r, ok := o.compileNum(x.R)
		if !ok {
			return nil, false
		}
		return o.scratched(&numExpr{kind: numArith, aop: x.Op, l: l, r: r, isInt: l.isInt && r.isInt}), true
	}
	return nil, false
}

func (o *vecCols) compileNumConst(d datum.D) (*numExpr, bool) {
	switch {
	case d.IsNull():
		// NULL arithmetic propagates NULL whatever the other side; the
		// comparison then yields Unknown, so typing does not matter.
		return &numExpr{kind: numConst, null: true, isInt: d.T != datum.TFloat}, true
	case d.T == datum.TInt:
		return &numExpr{kind: numConst, ci: d.I, cf: float64(d.I), isInt: true}, true
	case d.T == datum.TFloat:
		return &numExpr{kind: numConst, cf: d.F}, true
	}
	return nil, false
}

func (o *vecCols) compilePred(e qgm.Expr) (vecPred, bool) {
	switch x := e.(type) {
	case *qgm.Cmp:
		return o.compileCmp(x)
	case *qgm.Logic:
		if len(x.Args) == 0 {
			return nil, false
		}
		p := &logicPred{and: x.Op == qgm.And}
		o.users = append(o.users, p)
		for _, a := range x.Args {
			ap, ok := o.compilePred(a)
			if !ok {
				return nil, false
			}
			p.args = append(p.args, ap)
		}
		return p, true
	case *qgm.Not:
		xp, ok := o.compilePred(x.X)
		if !ok {
			return nil, false
		}
		return &notPred{x: xp}, true
	case *qgm.IsNull:
		cr, ok := x.X.(*qgm.ColRef)
		if !ok || cr.Q != o.q || o.colType(cr.Ord) == datum.TNull {
			return nil, false
		}
		return &isNullPred{col: cr.Ord, negate: x.Negate}, true
	case *qgm.ColRef:
		if x.Q != o.q || o.colType(x.Ord) != datum.TBool {
			return nil, false
		}
		return &boolColPred{col: x.Ord}, true
	case *qgm.Const:
		return o.compileConstPred(x.Val)
	case *qgm.Param:
		if x.Ord >= len(o.params) {
			return nil, false
		}
		return o.compileConstPred(o.params[x.Ord])
	}
	return nil, false
}

func (o *vecCols) compileConstPred(d datum.D) (vecPred, bool) {
	if d.IsNull() {
		return &constTVPred{tv: datum.Unknown}, true
	}
	if d.T != datum.TBool {
		return nil, false // row pipeline reports the type error
	}
	return &constTVPred{tv: datum.FromBool(d.B)}, true
}

func (o *vecCols) compileCmp(x *qgm.Cmp) (vecPred, bool) {
	l, ok := o.compileVal(x.L)
	if !ok {
		return nil, false
	}
	r, ok := o.compileVal(x.R)
	if !ok {
		return nil, false
	}
	// NULL literal on either side: the comparison is Unknown for every row
	// (the compiled subset's other side cannot error).
	if l.isConst && l.d.IsNull() || r.isConst && r.d.IsNull() {
		return &constTVPred{tv: datum.Unknown}, true
	}
	if l.isConst && r.isConst {
		if l.class != r.class {
			return nil, false
		}
		return &constTVPred{tv: datum.CompareTV(x.Op, l.d, r.d)}, true
	}
	if l.class != r.class || l.class == 0 {
		return nil, false
	}
	// Arithmetic on either side routes through the VM (no flip needed: it
	// evaluates both sides symmetrically).
	if l.num != nil || r.num != nil {
		ln, ok := o.asNum(l)
		if !ok {
			return nil, false
		}
		rn, ok := o.asNum(r)
		if !ok {
			return nil, false
		}
		return &numCmpPred{l: ln, r: rn, op: x.Op}, true
	}
	op := x.Op
	// Normalize const-vs-col to col-vs-const by flipping the operator.
	if l.isConst {
		l, r = r, l
		op = op.Flip()
	}
	switch l.class {
	case 1:
		if r.isConst {
			p := &cmpNumColConstPred{col: l.col, op: op}
			if r.d.T == datum.TInt {
				if o.colType(l.col) == datum.TInt {
					p.rhsInt, p.ci = true, r.d.I
				} else {
					p.cf = float64(r.d.I)
				}
			} else {
				p.cf = r.d.F
			}
			return p, true
		}
		return &cmpNumColColPred{a: l.col, b: r.col, op: op}, true
	case 2:
		if r.isConst {
			return &cmpStrColConstPred{col: l.col, op: op, rhs: r.d.S}, true
		}
		return &cmpStrColColPred{a: l.col, b: r.col, op: op}, true
	case 3:
		if r.isConst {
			return &cmpBoolColConstPred{col: l.col, op: op, rhs: r.d.B}, true
		}
		return &cmpBoolColColPred{a: l.col, b: r.col, op: op}, true
	}
	return nil, false
}

// asNum lifts a compiled numeric value into the VM (plain columns and
// constants become leaf nodes with scratch buffers).
func (o *vecCols) asNum(v compiledVal) (*numExpr, bool) {
	if v.num != nil {
		return v.num, true
	}
	var n *numExpr
	if v.isConst {
		c, ok := o.compileNumConst(v.d)
		if !ok {
			return nil, false
		}
		n = c
	} else {
		n = &numExpr{kind: numCol, col: v.col, isInt: o.colType(v.col) == datum.TInt}
	}
	return o.scratched(n), true
}

func (o *vecSelectOp) open() error {
	ev := o.ev
	if o.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	o.env = o.r.rootEnv()
	o.done = false
	o.acquire()
	for _, pred := range o.n.ConstPreds {
		tv, err := EvalPred(pred, o.env)
		if err != nil {
			return err
		}
		if tv != datum.True {
			o.done = true
			return nil
		}
	}
	o.r.stats[o.n.ID].Vectorized = true
	o.finN, o.finPos = 0, 0
	for _, vs := range o.stages {
		vs.built, vs.n, vs.pos, vs.chain = false, 0, 0, -1
	}
	o.chunkStart = 0
	o.visPos = 0
	if o.materialized {
		rows, err := o.r.drain(o.drive)
		o.rows, o.vis = rows, nil
		o.tbl = vec.Table{N: len(rows), Cols: make([]vec.Col, len(o.colTypes))}
		if err != nil {
			return err
		}
		o.openIndexes()
		if vs := o.stages[0]; !vs.onDriver {
			// buildOnDriver transposes at the first probe; an index stage
			// probes with the driving columns right away.
			o.transpose(vs.cols.tab)
		}
		return nil
	}
	rel, err := ev.relation(o.drive.Box.Table)
	if err != nil {
		return err
	}
	// Vec hands back the raw columnar arrays (all versions, zero-copy) plus a
	// visibility selection; kernels stay oblivious to MVCC and the pred loop
	// simply starts from o.vis slices instead of Iota ranges.
	o.tbl, o.rows, o.vis, o.tab = rel.Vec()
	o.openIndexes()
	// The string snapshot is taken after the table snapshots, so it resolves
	// every id the columns can hold.
	o.strs = o.tab.Strs()
	ev.Counters.BoxEvals++ // driving scan box, same as scanOp.open
	scanStats := &o.r.stats[o.drive.ID]
	scanStats.Opens++
	scanStats.Vectorized = true
	return nil
}

// buildOnDriver builds stage vs, the first behind a materialized driver,
// the other way round: the join table is keyed on the few driving rows, and
// the stage's base table streams through it a column batch at a time, each
// matching row appended to the match list of its key. A driving row's
// matches are its key's list in ascending base-row order — the order the
// row pipeline's probe of a table built over the base rows lists them in.
// The driving columns the pipeline reads are transposed here, against the
// intern table the base columns carry.
func (o *vecSelectOp) buildOnDriver(vs *vecStage) error {
	ev := o.ev
	ev.Counters.HashBuilds++
	vs.built = true
	tbl, rows, vis, tab, err := o.r.scanBuild(vs.st.Child)
	if err != nil {
		return err
	}
	vs.tbl, vs.rows = &tbl, rows
	o.transpose(tab)
	o.r.stats[vs.st.Child.ID].Vectorized = true

	// The arrays below come from the operator's pooled scratch, sized to
	// the driver (n) or to the build table (link).
	sc, n := o.sc, o.tbl.N
	keys := make([]*vec.Col, len(vs.probes))
	words := make([][]uint64, len(vs.probes))
	for p, ps := range vs.probes {
		keys[p] = &o.tbl.Cols[ps.ord]
		words[p] = sc.au64.take(n)
	}
	djt := vec.BuildJoinTable(keys, n, nil)
	// A driving row's group is the lowest driving row with its key.
	all := vec.Iota(vec.Sel(sc.ai32.take(n)[:0]), 0, int32(n))
	nulls := sc.au8.take(n)
	clear(nulls)
	for p, c := range keys {
		vec.NormCol(c, all, words[p], nulls, 1)
	}
	vs.grp = sc.ai32.take(n)
	miss := sc.abl.take(n)
	clear(miss)
	lookupRun(djt, words, nulls, miss, vs.grp)

	vs.first, vs.link = sc.ai32.take(n), sc.ai32.take(tbl.N)
	last := sc.ai32.take(n)
	for g := range vs.first {
		vs.first[g] = -1
	}
	count := tbl.N
	if vis != nil {
		count = len(vis)
	}
	add := func(g, b int32) {
		vs.link[b] = -1
		if vs.first[g] < 0 {
			vs.first[g] = b
		} else {
			vs.link[last[g]] = b
		}
		last[g] = b
	}
	for p := range words {
		words[p] = o.words[p]
	}
	// Without a visibility selection every row is visible: each batch is a
	// window of the columns, addressed by one identity selection.
	ident := vec.Iota(o.sc.i32.take()[:0], 0, vecBatch)
	win := make([]vec.Col, len(vs.keyOrds))
	var key vec.Key
	g, have := int32(-1), false
	for lo := 0; lo < count; lo += vecBatch {
		hi := min(lo+vecBatch, count)
		nulls := o.nulls[:hi-lo]
		clear(nulls)
		// Row k of the batch is version ids[k] + off.
		ids, off := ident[:hi-lo], int32(lo)
		if vis != nil {
			ids, off = vis[lo:hi], 0
		}
		for p, ord := range vs.keyOrds {
			c := &tbl.Cols[ord]
			if vis == nil {
				win[p] = window(c, lo, hi)
				c = &win[p]
			}
			vec.NormCol(c, ids, words[p], nulls, 1)
		}
		if len(words) > 1 {
			grps, miss := vs.heads[:len(ids)], o.miss[:len(ids)]
			clear(miss)
			lookupRun(djt, words, nulls, miss, grps)
			for k, g := range grps {
				if g >= 0 {
					add(g, ids[k]+off)
				}
			}
		} else {
			// The tight loop: a one-word key, one lookup per run of equal
			// keys, and a run no driving row matches skipped whole. (A NULL
			// key's word is 0, so a run may mix NULLs in; add skips them.)
			w0 := words[0][:len(ids)]
			for k := 0; k < len(w0); {
				w, end := w0[k], k+1
				for end < len(w0) && w0[end] == w {
					end++
				}
				if !have || w != key.V[0] {
					key.V[0], have = w, true
					g = djt.Head(&key)
				}
				for ; g >= 0 && k < end; k++ {
					if nulls[k] == 0 {
						add(g, ids[k]+off)
					}
				}
				k = end
			}
		}
		if err := ev.tickN(len(ids)); err != nil {
			return err
		}
	}
	return nil
}

// transpose copies the driving columns some compile asked for out of a
// materialized driver's rows into typed columns, interning strings through
// tab, the intern table of the base columns they meet.
func (o *vecSelectOp) transpose(tab *vec.Intern) {
	o.tab = tab
	for j, use := range o.used {
		if use {
			o.tbl.Cols[j] = vec.NewCol(o.colTypes[j])
			for _, row := range o.rows {
				o.tbl.Cols[j].Append(row[j], tab)
			}
		}
	}
	o.strs = tab.Strs()
}

// openIndexes captures each index stage's relation for this open: its
// columns (the bucket kernels', the projection's and the group-by's), its
// rows, and an empty set of probed keys.
func (o *vecSelectOp) openIndexes() {
	for _, vs := range o.stages {
		if vs.rel == nil {
			continue
		}
		tbl, rows, _, tab := vs.rel.Vec()
		vs.cols.tbl, vs.cols.tab, vs.cols.strs = tbl, tab, tab.Strs()
		vs.tbl, vs.rows = &vs.cols.tbl, rows
		clear(vs.ix.seen)
		vs.ix.run = vs.ix.run[:0]
	}
}

// window returns rows [lo, hi) of c as a column of their own.
func window(c *vec.Col, lo, hi int) vec.Col {
	w := vec.Col{T: c.T, Nulls: c.Nulls[lo:hi]}
	switch c.T {
	case datum.TInt:
		w.I64 = c.I64[lo:hi]
	case datum.TFloat:
		w.F64 = c.F64[lo:hi]
	case datum.TBool:
		w.Bs = c.Bs[lo:hi]
	case datum.TString:
		w.IDs = c.IDs[lo:hi]
	}
	return w
}

// lookupRun sets heads[k] to the head of the chain in jt of key k — key
// position p is words[p][k] — or to -1 where nulls[k] != 0 or miss[k], and
// returns how many keys had no NULL component. A run of equal keys, as a
// clustered fact table yields, reuses the chain just found; a one-word key,
// the common case, takes a loop of its own.
func lookupRun(jt *vec.JoinTable, words [][]uint64, nulls []uint8, miss []bool, heads []int32) int {
	var key vec.Key
	head, have, probes := int32(-1), false, 0
	if len(words) == 1 {
		w0 := words[0][:len(heads)]
		for k, w := range w0 {
			heads[k] = -1
			if nulls[k] != 0 {
				continue
			}
			probes++
			if miss[k] {
				continue
			}
			if !have || w != key.V[0] {
				key.V[0], have = w, true
				head = jt.Head(&key)
			}
			heads[k] = head
		}
		return probes
	}
	for k := range heads {
		heads[k] = -1
		if nulls[k] != 0 {
			continue
		}
		probes++
		if miss[k] {
			continue
		}
		same := have
		for p := 0; same && p < len(words); p++ {
			same = words[p][k] == key.V[p]
		}
		if !same {
			for p, w := range words {
				key.V[p] = w[k]
			}
			have = true
			head = jt.Head(&key)
		}
		heads[k] = head
	}
	return probes
}

// refill returns the filter survivors of the next vecBatch chunk of the scan
// (possibly none); false means the scan is exhausted. Counter accounting per
// chunk matches scanOp per batch: BaseRows and the scan box's output budget
// for every row read, stats batches/rows on the scan node.
func (o *vecSelectOp) refill() (vec.Sel, bool, error) {
	ev := o.ev
	// Chunk either the full table (everything visible) or the snapshot's
	// visibility selection. Counters charge visible rows only, matching the
	// row pipeline, which never sees invisible versions.
	var sel vec.Sel
	if o.vis != nil {
		if o.visPos >= len(o.vis) {
			return nil, false, nil
		}
		lo := o.visPos
		hi := min(lo+vecBatch, len(o.vis))
		o.visPos = hi
		sel = o.vis[lo:hi]
	} else {
		if o.chunkStart >= o.tbl.N {
			return nil, false, nil
		}
		lo := o.chunkStart
		hi := min(lo+vecBatch, o.tbl.N)
		o.chunkStart = hi
		sel = vec.Iota(o.selA[:0], int32(lo), int32(hi))
	}
	n := len(sel)
	ev.Counters.BaseRows += int64(n)
	if err := ev.addOutput(n); err != nil {
		return nil, false, err
	}
	st := &o.r.stats[o.drive.ID]
	st.Batches++
	st.Rows += int64(n)
	if err := ev.tickN(n); err != nil {
		return nil, false, err
	}
	for _, p := range o.preds {
		if len(sel) == 0 {
			break
		}
		tvs := o.tvs[:len(sel)]
		p.eval(&o.vecCols, sel, tvs)
		sel = vec.FilterTrue(sel, tvs, o.selB[:0])
		o.selA, o.selB = o.selB, o.selA
	}
	return sel, true, nil
}

// source fills dst with the driving stage's next batch of row ids: the
// filter survivors of the next scan chunks, or the next rows of a
// materialized driver. It returns the batch size; 0 means exhausted.
func (o *vecSelectOp) source(dst [][]int32) (int, error) {
	if o.materialized {
		lo := o.chunkStart
		hi := min(lo+vecBatch, o.tbl.N)
		o.chunkStart = hi
		dst[0] = vec.Iota(o.selA[:0], int32(lo), int32(hi))
		return hi - lo, nil
	}
	for {
		sel, ok, err := o.refill()
		if err != nil || !ok {
			return 0, err
		}
		if len(sel) > 0 {
			dst[0] = sel
			return len(sel), nil
		}
	}
}

// fill fills dst with the next batch of tuples complete through stage s-1;
// 0 means exhausted.
func (o *vecSelectOp) fill(s int, dst [][]int32) (int, error) {
	if s == 0 {
		return o.source(dst)
	}
	return o.expand(s-1, dst)
}

// expand fills out with up to vecBatch extensions of stage s's input tuples
// by their matching build rows, refilling the input from the stage below as
// it runs dry. Each tuple's matches follow it in chain order, so the order
// of the input carries over. Residual filters run per extended tuple.
func (o *vecSelectOp) expand(s int, out [][]int32) (int, error) {
	vs := o.stages[s]
	ids, src := out[s+1][:0], o.src[:0]
	for k := 0; k <= s; k++ {
		out[k] = out[k][:0]
	}
	// gather appends the extended tuples' input columns to out.
	gather := func() {
		for k, c := range vs.in {
			col := out[k]
			for _, i := range src {
				col = append(col, c[i])
			}
			out[k] = col
		}
		src = src[:0]
	}
	cur, chain, steps := vs.cur, vs.chain, 0
	for len(ids) < vecBatch {
		if chain < 0 {
			if vs.pos == vs.n {
				gather()
				n, err := o.fill(s, vs.in)
				if err != nil {
					return 0, err
				}
				if n == 0 {
					break
				}
				if err := o.probe(vs, n); err != nil {
					return 0, err
				}
				vs.n, vs.pos = n, 0
			}
			cur, chain = vs.pos, vs.heads[vs.pos]
			vs.pos++
			continue
		}
		id := chain
		switch {
		case vs.ix != nil:
			run := vs.ix.run
			if id, chain = run[chain], chain+1; run[chain] < 0 {
				chain = -1
			}
		case vs.link != nil:
			chain = vs.link[id]
		default:
			chain = vs.jt.Next(id)
		}
		steps++
		if len(vs.filters) > 0 {
			ok, err := o.pass(s, vs.in, cur, id)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
		}
		src = append(src, int32(cur))
		ids = append(ids, id)
	}
	gather()
	vs.cur, vs.chain = cur, chain
	out[s+1] = ids
	return len(ids), o.ev.tickN(steps)
}

// probe sets the chain heads of the n tuples in vs.in, building the stage
// on first use. Key words are read a column at a time; the accounting is
// the row pipeline's: a NULL key component skips the probe, and a string
// that was never interned probes and misses.
func (o *vecSelectOp) probe(vs *vecStage, n int) error {
	heads := vs.heads[:n]
	if vs.rel != nil {
		return o.probeIndex(vs, n)
	}
	if vs.onDriver {
		if !vs.built {
			if err := o.buildOnDriver(vs); err != nil {
				return err
			}
		}
		probes := 0
		for k, d := range vs.in[0][:n] {
			heads[k] = -1
			if g := vs.grp[d]; g >= 0 {
				probes++
				heads[k] = vs.first[g]
			}
		}
		o.ev.Counters.HashProbes += int64(probes)
		return nil
	}
	if !vs.built {
		if err := o.buildStage(vs); err != nil {
			return err
		}
	}
	nulls, miss := o.nulls[:n], o.miss[:n]
	clear(nulls)
	clear(miss)
	for p := range vs.probes {
		o.probeWords(&vs.probes[p], vs.in, o.words[p][:n], nulls, miss, uint8(1)<<p)
	}
	o.ev.Counters.HashProbes += int64(lookupRun(vs.jt, o.words[:len(vs.probes)], nulls, miss, heads))
	return nil
}

// probeIndex sets the chain heads of the n tuples in vs.in from the stage's
// index: a key already probed this open takes its chain again, a new one is
// looked up once (lookupKey). The accounting is the row pipeline's, which
// probes once per binding: every tuple counts one index lookup, a NULL key
// component included, and no looked-up row counts as a base row.
func (o *vecSelectOp) probeIndex(vs *vecStage, n int) error {
	heads, nulls, miss := vs.heads[:n], o.nulls[:n], o.miss[:n]
	clear(nulls)
	clear(miss)
	words := o.words[:len(vs.probes)]
	for p := range vs.probes {
		o.probeWords(&vs.probes[p], vs.in, words[p][:n], nulls, miss, uint8(1)<<p)
	}
	o.ev.Counters.IndexLookups += int64(n)
	var key vec.Key
	for k := range heads {
		heads[k] = -1
		if nulls[k] != 0 || miss[k] {
			continue // a NULL, or a string no stored value can equal
		}
		for p, w := range words {
			key.V[p] = w[k]
		}
		head, ok := vs.ix.seen[key]
		if !ok {
			var err error
			if head, err = o.lookupKey(vs, k); err != nil {
				return err
			}
			vs.ix.seen[key] = head
		}
		heads[k] = head
	}
	return nil
}

// lookupKey looks the key of tuple k of vs.in up in the stage's index —
// the datums the row pipeline would probe with, so the encoding is the
// index's own — appending the bucket to the stage's run slab, runs it
// through the stage's compiled residuals vecBatch row ids at a time, and
// keeps the survivors there in bucket order, the order the row pipeline's
// lookup returns them in, as one -1-terminated run. It returns the run's
// start, -1 when no row survives. Equal normalized words mean equal index
// keys, so the first tuple of a key speaks for all.
func (o *vecSelectOp) lookupKey(vs *vecStage, k int) (int32, error) {
	for p := range vs.probes {
		vs.key[p] = o.probeDatum(&vs.probes[p], vs.in, k)
	}
	start := len(vs.ix.run)
	run, _ := vs.rel.LookupIDs(vs.st.IndexCols, vs.key, vs.ix.run)
	vs.ix.run = run[:start]
	if err := o.ev.tickN(len(run) - start); err != nil {
		return -1, err
	}
	end := start
	for lo := start; lo < len(run); lo += vecBatch {
		sel := run[lo:min(lo+vecBatch, len(run))]
		for _, p := range vs.preds {
			if len(sel) == 0 {
				break
			}
			tvs := o.tvs[:len(sel)]
			p.eval(&vs.cols, sel, tvs)
			sel = vec.FilterTrue(sel, tvs, sel[:0])
		}
		end += copy(run[end:], sel)
	}
	if end == start {
		return -1, nil
	}
	vs.ix.run = append(run[:end], -1)
	return int32(start), nil
}

// probeDatum returns key position ps of tuple k of in as the row pipeline
// evaluates it.
func (o *vecSelectOp) probeDatum(ps *probeSrc, in [][]int32, k int) datum.D {
	switch ps.kind {
	case probeDrive:
		return o.rows[in[0][k]][ps.ord]
	case probeStage:
		return o.stages[ps.stage].rows[in[ps.stage+1][k]][ps.ord]
	}
	return ps.d
}

// probeWords writes key position ps of each tuple in in to words, or's bit
// into nulls where it is NULL, and sets miss where it is a string no stored
// value can equal.
func (o *vecSelectOp) probeWords(ps *probeSrc, in [][]int32, words []uint64, nulls []uint8, miss []bool, bit uint8) {
	switch ps.kind {
	case probeDrive:
		vec.NormCol(&o.tbl.Cols[ps.ord], in[0], words, nulls, bit)
	case probeStage:
		src, ids := o.stages[ps.stage], in[ps.stage+1]
		if src.tbl != nil {
			vec.NormCol(&src.tbl.Cols[ps.ord], ids, words, nulls, bit)
			return
		}
		for k, id := range ids {
			d := src.rows[id][ps.ord]
			switch {
			case d.IsNull():
				nulls[k] |= bit
			case d.T == datum.TString:
				w, ok := o.tab.Lookup(d.S)
				words[k], miss[k] = uint64(w), miss[k] || !ok
			default:
				words[k] = o.buildWord(d)
			}
		}
	default:
		if !ps.resolved {
			// Constants resolve after the stage build, so every interned
			// build key is visible to the Lookup.
			if ps.d.T == datum.TString {
				id, ok := o.tab.Lookup(ps.d.S)
				ps.word, ps.missing = uint64(id), !ok
			} else {
				ps.word = o.buildWord(ps.d)
			}
			ps.resolved = true
		}
		for k := range words {
			words[k] = ps.word
			if ps.null {
				nulls[k] |= bit
			}
			miss[k] = miss[k] || ps.missing
		}
	}
}

// buildStage keys a hash stage's build side into its join table. A
// base-table child is keyed from the relation's columnar snapshot (see
// planRun.scanBuild); any other child materializes through
// planRun.materialize — charging the counters the row pipeline's streamed
// build charges, a bridge reading the box memo — and is keyed row by row,
// interning string keys through the shared engine table. Either way a
// probe-side Lookup miss proves no build key matches.
func (o *vecSelectOp) buildStage(vs *vecStage) error {
	o.ev.Counters.HashBuilds++
	vs.built = true
	if vs.st.Child.Kind == plan.OpScan {
		tbl, rows, vis, _, err := o.r.scanBuild(vs.st.Child)
		if err != nil {
			return err
		}
		cols := make([]*vec.Col, len(vs.keyOrds))
		for p, ord := range vs.keyOrds {
			cols[p] = &tbl.Cols[ord]
		}
		vs.tbl, vs.rows = &tbl, rows
		vs.jt = vec.BuildJoinTable(cols, tbl.N, vis)
		return nil
	}
	rows, err := o.r.materialize(vs.st.Child)
	if err != nil {
		return err
	}
	vs.rows = rows
	vs.jt = vec.NewJoinTable(len(vs.keyOrds), len(rows))
rows:
	for j := len(rows) - 1; j >= 0; j-- {
		var key vec.Key
		for p, ord := range vs.keyOrds {
			d := rows[j][ord]
			if d.IsNull() {
				continue rows // equality never matches NULL
			}
			key.V[p] = o.buildWord(d)
		}
		vs.jt.Prepend(&key, int32(j))
	}
	return nil
}

// buildWord normalizes one non-NULL build-side key datum.
func (o *vecSelectOp) buildWord(d datum.D) uint64 {
	switch d.T {
	case datum.TString:
		return uint64(o.tab.Intern(d.S))
	case datum.TBool:
		return vec.NormBool(d.B)
	default:
		return vec.NormNum(d.AsFloat())
	}
}

// bind binds the quantifiers of tuple k of in — the driving row and the
// rows matched at stages before s — in env.
func (o *vecSelectOp) bind(s int, in [][]int32, k int) {
	o.env[o.q] = o.rows[in[0][k]]
	for t := 0; t < s; t++ {
		vs := o.stages[t]
		o.env[vs.quant] = vs.rows[in[t+1][k]]
	}
}

// pass reports whether tuple k of in, extended by build row id of stage s,
// satisfies the stage's residual filters.
func (o *vecSelectOp) pass(s int, in [][]int32, k int, id int32) (bool, error) {
	vs := o.stages[s]
	o.bind(s, in, k)
	o.env[vs.quant] = vs.rows[id]
	for _, pred := range vs.filters {
		tv, err := EvalPred(pred, o.env)
		if err != nil || tv != datum.True {
			return false, err
		}
	}
	return true, nil
}

// pull refills o.fin with the next batch of complete tuples; false means the
// pipeline is exhausted.
func (o *vecSelectOp) pull() (bool, error) {
	n, err := o.fill(len(o.stages), o.fin)
	o.finN, o.finPos = n, 0
	if n == 0 {
		o.done = true
	}
	return n > 0, err
}

// emit projects tuple k of the current batch into a fresh row.
func (o *vecSelectOp) emit(k int) (datum.Row, error) {
	if o.projSrcs == nil {
		o.bind(len(o.stages), o.fin, k)
		return o.ev.projectRow(o.n.Box, o.env)
	}
	row := make(datum.Row, len(o.projSrcs))
	for j, ps := range o.projSrcs {
		if ps.stage < 0 {
			row[j] = o.rows[o.fin[0][k]][ps.ord]
		} else {
			row[j] = o.stages[ps.stage].rows[o.fin[ps.stage+1][k]][ps.ord]
		}
	}
	return row, nil
}

func (o *vecSelectOp) next() ([]datum.Row, error) {
	if o.done {
		return nil, nil
	}
	o.out = o.out[:0]
	for len(o.out) < streamBatch {
		if o.finPos == o.finN {
			ok, err := o.pull()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		row, err := o.emit(o.finPos)
		if err != nil {
			return nil, err
		}
		o.finPos++
		o.out = append(o.out, row)
	}
	if o.n.BoxRoot && len(o.out) > 0 {
		if err := o.ev.addOutput(len(o.out)); err != nil {
			return nil, err
		}
	}
	return o.out, nil
}

// nextIDs is next for a columnar consumer (the vectorized group-by): instead
// of projecting rows it returns the driving row ids of the next batch of
// joined tuples, with each hash stage's matched build-row ids in its ids
// slice at the same positions. Accounting matches next.
func (o *vecSelectOp) nextIDs() (vec.Sel, error) {
	if o.done {
		return nil, nil
	}
	if o.finPos == o.finN {
		if ok, err := o.pull(); !ok {
			return nil, err
		}
	}
	lo, hi := o.finPos, o.finN
	o.finPos = hi
	for s, vs := range o.stages {
		vs.ids = o.fin[s+1][lo:hi]
	}
	if o.n.BoxRoot {
		if err := o.ev.addOutput(hi - lo); err != nil {
			return nil, err
		}
	}
	return o.fin[0][lo:hi], nil
}

func (o *vecSelectOp) close() error {
	o.rows = nil
	o.out = nil
	o.env = nil
	for _, vs := range o.stages {
		vs.rows, vs.tbl, vs.jt, vs.ids = nil, nil, nil, nil
		vs.grp, vs.first, vs.link = nil, nil, nil
		vs.cols.tbl, vs.cols.strs, vs.ix = vec.Table{}, nil, nil
	}
	if o.sc != nil {
		o.sc.release()
		o.sc = nil
	}
	return nil
}
