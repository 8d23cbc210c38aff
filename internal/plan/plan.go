// Package plan is the physical-plan layer between the QGM rewrite graph and
// the executor. Lowering turns each optimized box — together with the join
// order the plan optimizer recorded in Box.JoinOrder — into a typed operator
// tree: scans, join-pipeline stages with explicit access paths, semi/anti
// subquery checks, group-by, set operations, distinct, sort, limit, and the
// recursive fixpoint. The streaming executor (internal/exec) interprets the
// tree with an Open/Next/Close iterator protocol over small row batches; a
// box that is materialized rather than streamed (shared, correlated,
// recursive, an extension kind) is a bridge operator over its own lowered
// subtree, which the executor drains.
//
// The split mirrors the architecture transformation-based optimizers assume
// (a logical rewrite graph above an explicit physical operator tree) and is
// what makes LIMIT and EXISTS/NOT EXISTS true early-exit: a consumer that
// stops pulling stops the whole spine.
package plan

import (
	"fmt"
	"strings"
	"time"

	"starmagic/internal/qgm"
)

// OpKind enumerates physical operators.
type OpKind uint8

// Physical operator kinds.
const (
	// OpScan streams a base table in batches.
	OpScan OpKind = iota
	// OpSelect is the join pipeline of one select box: a streamed driving
	// stage followed by hash/index/nested-loop stages, subquery checks, and
	// projection.
	OpSelect
	// OpGroupBy is a pipeline breaker: it drains its input into grouped
	// aggregate state and streams the groups out.
	OpGroupBy
	// OpUnion streams its inputs in order.
	OpUnion
	// OpIntersect materializes the right input's counts and streams the left.
	OpIntersect
	// OpExcept materializes the right input's counts and streams the left.
	OpExcept
	// OpDistinct filters duplicates with streaming seen-set state.
	OpDistinct
	// OpSort is a pipeline breaker implementing top-level ORDER BY.
	OpSort
	// OpLimit stops pulling from its child once N rows have been delivered;
	// the stop propagates down the streaming spine.
	OpLimit
	// OpTrim drops trailing hidden ORDER BY support columns.
	OpTrim
	// OpFixpoint evaluates a recursive view by naive iteration (a pipeline
	// breaker: each round re-opens its child, the body, against the
	// accumulated set) and streams the fixpoint out. Inside the body, a
	// childless OpFixpoint reads the accumulated set of the current round.
	OpFixpoint
	// OpBoxEval materializes a box (memoized when closed) rather than
	// streaming it: its child is the box's own lowered subtree, drained per
	// evaluation. Used for correlated subtrees, subquery inputs, shared
	// common subexpressions and closed inputs of a fixpoint body; an
	// extension box kind's bridge has one child per quantifier and runs the
	// kind's registered handler over their rows.
	OpBoxEval
)

func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpSelect:
		return "select"
	case OpGroupBy:
		return "group-by"
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpExcept:
		return "except"
	case OpDistinct:
		return "distinct"
	case OpSort:
		return "sort"
	case OpLimit:
		return "limit"
	case OpTrim:
		return "trim"
	case OpFixpoint:
		return "fixpoint"
	case OpBoxEval:
		return "materialize"
	}
	return "?"
}

// AccessKind is the access path of one join-pipeline stage.
type AccessKind uint8

// Stage access paths.
const (
	// AccessStream pulls the child operator batch by batch (driving stage).
	AccessStream AccessKind = iota
	// AccessIndex probes a base-table hash index per outer binding.
	AccessIndex
	// AccessHash builds a transient hash table once and probes it per outer
	// binding (the build is the stage's pipeline-breaker state).
	AccessHash
	// AccessScan rescans the materialized child rows per outer binding
	// (nested loop).
	AccessScan
	// AccessCorr re-evaluates a correlated child box per outer binding: the
	// child bridge's subtree is drained under the binding.
	AccessCorr
)

func (a AccessKind) String() string {
	switch a {
	case AccessStream:
		return "stream"
	case AccessIndex:
		return "index"
	case AccessHash:
		return "hash"
	case AccessScan:
		return "nested-loop"
	case AccessCorr:
		return "correlated"
	}
	return "?"
}

// Stage is one join-pipeline stage of an OpSelect node: it binds Quant to
// each qualifying row of its child under the bindings of the previous
// stages.
type Stage struct {
	Quant  *qgm.Quantifier
	Access AccessKind
	// IndexCols are the base-table columns probed when Access is AccessIndex.
	IndexCols []int
	// KeyMine/KeyOther are the equality key pairs for hash/index access:
	// KeyMine[i] references only Quant, KeyOther[i] only prior stages.
	KeyMine, KeyOther []qgm.Expr
	// Residual predicates are evaluated with Quant bound (filters).
	Residual []qgm.Expr
	// Child is the operator producing the stage's input rows.
	Child *Node
}

// SubqMode selects how an Exists/ForAll quantifier check executes.
type SubqMode uint8

// Subquery check modes.
const (
	// SubqBridge materializes the subquery through its bridge (memoized per
	// correlation binding) and applies the match predicates row by row,
	// short-circuiting at the first decisive row.
	SubqBridge SubqMode = iota
	// SubqFirstMatch streams the subquery operator tree and stops pulling at
	// the first decisive row — the semi/anti-join early exit. Only
	// uncorrelated checks (constant across outer bindings) lower to this.
	SubqFirstMatch
)

// Subquery is one Exists (semi-join), ForAll (anti-join) or Scalar
// subquery of an OpSelect node.
type Subquery struct {
	Quant *qgm.Quantifier
	Match []qgm.Expr
	Mode  SubqMode
	// Child is the subquery operator tree: streamed for SubqFirstMatch, a
	// bridge over the subquery's subtree for SubqBridge.
	Child *Node
}

// Node is one physical operator. The tree is immutable after lowering; all
// per-execution state (iterators, hash tables, counters) lives in the
// executor, keyed by Node.ID.
type Node struct {
	ID   int
	Kind OpKind
	// Box is the QGM box this operator implements (nil for the top-level
	// sort/limit/trim wrappers).
	Box *qgm.Box
	// Label and Detail are the EXPLAIN rendering: operator identity and the
	// access-path summary.
	Label  string
	Detail string
	// EstRows is the optimizer's cardinality estimate for this operator's
	// output.
	EstRows float64
	// EstMem is a coarse estimate, in bytes, of the operator's resident
	// output (EstRows × estimated row width). The executor compares it
	// against the query's memory budget to pre-pick spill-capable variants
	// — e.g. a sort whose input estimate already exceeds the budget flushes
	// bounded runs eagerly instead of waiting for the first denied
	// reservation.
	EstMem float64
	// Children are the operator inputs in execution order. For OpSelect they
	// are the stage children followed by streamed subquery children.
	Children []*Node

	// OpSelect payload.
	ConstPreds []qgm.Expr // stage-0 predicates (constant under no bindings)
	Stages     []Stage
	Scalars    []Subquery // SubqBridge, no match predicates
	Subqs      []Subquery
	PostPreds  []qgm.Expr

	// OpLimit payload.
	N int64
	// OpSort payload.
	OrderBy []qgm.OrderSpec
	// OpTrim payload.
	Hidden int

	// BoxRoot marks the node that completes its box's semantics (for a
	// DISTINCT select box that is the distinct wrapper, not the join
	// pipeline). The executor counts BoxEvals/OutputRows and enforces the
	// row budget at box roots, once per box evaluation.
	BoxRoot bool

	// Vec marks an operator the lowering judged vectorizable (see
	// vectorizableSelect and vectorizableGroupBy). The executor makes the
	// final call at build time (it re-verifies against runtime types and
	// the memory mode) and records the outcome in OpStats.Vectorized; a
	// planned-but-not-executed vectorization falls back to the row pipeline
	// with identical semantics.
	Vec bool
}

// Plan is a lowered query: the operator tree plus the flat node list the
// executor uses to allocate per-run counters.
type Plan struct {
	Root  *Node
	Nodes []*Node // indexed by Node.ID
	Graph *qgm.Graph
}

// OpStats are one operator's per-execution counters. The executor allocates
// one slice per run (plans are shared across concurrent executions), so the
// numbers describe exactly one execution.
type OpStats struct {
	Opens   int64
	Batches int64
	Rows    int64
	// Nanos is inclusive wall-clock (children's time included), as in
	// EXPLAIN ANALYZE conventions.
	Nanos int64
	// Spills counts spill-to-disk events attributed to this operator under
	// a memory budget (hash-partition page-outs, sort-run flushes, row-
	// buffer flushes); SpillBytes is the bytes written by those events.
	Spills     int64
	SpillBytes int64
	// Vectorized reports that the operator actually executed on the
	// columnar fast path this run (set by the executor at open; false when
	// a planned vectorization fell back to the row pipeline).
	Vectorized bool
}

// newNode allocates a node registered in the plan.
func (p *Plan) newNode(kind OpKind, box *qgm.Box, label string) *Node {
	n := &Node{ID: len(p.Nodes), Kind: kind, Box: box, Label: label}
	p.Nodes = append(p.Nodes, n)
	return n
}

// Format renders the operator tree. With stats (one entry per node, from an
// execution) each line carries actual rows/batches/time; with nil stats the
// estimates alone are shown.
func (p *Plan) Format(stats []OpStats) string {
	var sb strings.Builder
	var walk func(n *Node, prefix string, last bool, top bool)
	walk = func(n *Node, prefix string, last bool, top bool) {
		line := prefix
		childPrefix := prefix
		if !top {
			if last {
				line += "└─ "
				childPrefix += "   "
			} else {
				line += "├─ "
				childPrefix += "│  "
			}
		}
		line += n.Label
		if n.Detail != "" {
			line += " [" + n.Detail + "]"
		}
		if n.EstRows > 0 && (stats == nil || n.ID >= len(stats)) {
			line += fmt.Sprintf(" (est %.0f)", n.EstRows)
		}
		if stats != nil && n.ID < len(stats) {
			st := stats[n.ID]
			line += fmt.Sprintf("  rows=%d", st.Rows)
			if n.EstRows > 0 {
				line += fmt.Sprintf(" est_rows=%.0f", n.EstRows)
				if q := qError(n.EstRows, st.Rows); q > 0 {
					line += fmt.Sprintf(" q=%.1f", q)
				}
			}
			line += fmt.Sprintf(" batches=%d", st.Batches)
			if st.Batches > 0 {
				line += fmt.Sprintf(" rows_per_batch=%.1f", float64(st.Rows)/float64(st.Batches))
			}
			if n.Vec || st.Vectorized {
				line += fmt.Sprintf(" vectorized=%v", st.Vectorized)
			}
			if st.Nanos > 0 {
				line += fmt.Sprintf(" time=%v", time.Duration(st.Nanos).Round(time.Microsecond))
			}
			if st.Spills > 0 {
				line += fmt.Sprintf(" spills=%d spill_bytes=%d", st.Spills, st.SpillBytes)
			}
		} else if n.Vec {
			line += " [vectorizable]"
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	walk(p.Root, "", true, true)
	if stats != nil {
		if q := p.MaxQError(stats); q > 0 {
			fmt.Fprintf(&sb, "max q-error: %.1fx\n", q)
		}
	}
	return sb.String()
}

// String renders the tree without execution counters.
func (p *Plan) String() string { return p.Format(nil) }

// qError is the symmetric estimation error max(est/actual, actual/est), the
// standard measure of cardinality-estimate quality; both sides are floored
// at one row so an empty operator does not divide by zero. 1.0 is a perfect
// estimate.
func qError(est float64, actual int64) float64 {
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	if est < 1 {
		est = 1
	}
	if est > a {
		return est / a
	}
	return a / est
}

// MaxQError returns the worst per-operator q-error of one execution, the
// number EXPLAIN prints after the operator tree. Operators
// that never opened (short-circuited subtrees) and operators without an
// estimate are skipped; 0 means no operator qualified.
func (p *Plan) MaxQError(stats []OpStats) float64 {
	maxQ := 0.0
	for _, n := range p.Nodes {
		if n.ID >= len(stats) || n.EstRows <= 0 || stats[n.ID].Opens == 0 {
			continue
		}
		if q := qError(n.EstRows, stats[n.ID].Rows); q > maxQ {
			maxQ = q
		}
	}
	return maxQ
}

// OpReport is one operator's flattened explain entry (depth-first order),
// the structured counterpart of Format for tools and metrics.
type OpReport struct {
	ID      int
	Depth   int
	Kind    string
	Label   string
	Detail  string
	EstRows float64
	Rows    int64
	Batches int64
	Nanos   int64
	// Spills/SpillBytes mirror OpStats: spill-to-disk events attributed to
	// this operator under a memory budget.
	Spills     int64
	SpillBytes int64
	// Vectorized reports the columnar fast path actually ran for this
	// operator; RowsPerBatch is the operator's mean output batch size (0
	// when it produced no batches).
	Vectorized   bool
	RowsPerBatch float64
}

// Report flattens the tree (with optional per-run stats) into OpReports.
func (p *Plan) Report(stats []OpStats) []OpReport {
	var out []OpReport
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		r := OpReport{
			ID: n.ID, Depth: depth, Kind: n.Kind.String(),
			Label: n.Label, Detail: n.Detail, EstRows: n.EstRows,
		}
		if stats != nil && n.ID < len(stats) {
			r.Rows = stats[n.ID].Rows
			r.Batches = stats[n.ID].Batches
			r.Nanos = stats[n.ID].Nanos
			r.Spills = stats[n.ID].Spills
			r.SpillBytes = stats[n.ID].SpillBytes
			r.Vectorized = stats[n.ID].Vectorized
			if r.Batches > 0 {
				r.RowsPerBatch = float64(r.Rows) / float64(r.Batches)
			}
		}
		out = append(out, r)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return out
}
