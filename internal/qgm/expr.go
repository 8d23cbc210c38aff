package qgm

import (
	"fmt"
	"strings"

	"starmagic/internal/datum"
)

// aggKindAlias and typeAlias let qgm re-export datum's kinds without an
// import cycle in qgm.go's declarations.
type (
	aggKindAlias = datum.AggKind
	typeAlias    = datum.Type
)

// Expr is a resolved expression over quantifier columns. Unlike sql.Expr,
// all names are bound: a ColRef points at a quantifier object and an output
// ordinal of the box it ranges over. References to quantifiers of ancestor
// boxes represent correlation.
type Expr interface {
	expr()
	// String renders the expression for dumps and tests.
	String() string
}

// ColRef is column Ord of the box quantifier Q ranges over.
type ColRef struct {
	Q   *Quantifier
	Ord int
}

// Const is a literal.
type Const struct {
	Val datum.D
}

// Param is a positional query parameter (`?`), bound to a value only at
// execution time. To the rewrite rules and the EMST transformation it is an
// opaque constant: it references no quantifiers, so any plan made for one
// binding is correct for every other — which is what lets a cached plan
// serve any argument values. The plan optimizer reads its value only when
// it plans for a binding (opt.Estimator.Params). Type is the declared slot
// type when known (TNull otherwise).
type Param struct {
	Ord  int
	Type datum.Type
}

// Cmp is a comparison L op R.
type Cmp struct {
	Op   datum.CmpOp
	L, R Expr
}

// LogicOp is AND or OR.
type LogicOp uint8

// Logic operators.
const (
	And LogicOp = iota
	Or
)

// Logic is an n-ary AND/OR.
type Logic struct {
	Op   LogicOp
	Args []Expr
}

// Not is logical negation.
type Not struct {
	X Expr
}

// Arith is an arithmetic expression.
type Arith struct {
	Op   datum.ArithOp
	L, R Expr
}

// Neg is unary minus.
type Neg struct {
	X Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// Like is x [NOT] LIKE pattern.
type Like struct {
	X       Expr
	Pattern string
	Negate  bool
}

// Concat is string concatenation.
type Concat struct {
	L, R Expr
}

// CaseWhen is one arm of a Case.
type CaseWhen struct {
	When Expr // predicate
	Then Expr
}

// Case is a searched CASE expression (simple CASE is normalized to
// equality predicates during semantic analysis). Else nil means NULL.
type Case struct {
	Whens []CaseWhen
	Else  Expr
}

// Func is a scalar (non-aggregate) function application; the supported set
// is in internal/exec (ABS, UPPER, LOWER, LENGTH, COALESCE, NULLIF).
type Func struct {
	Name string
	Args []Expr
}

// Match is the match predicate of an Exists/ForAll quantifier that carries
// no real comparison: it references the quantifier (so rules and the
// executor associate it) and evaluates to the constant Truth for every
// subquery row. EXISTS uses an Exists quantifier with Match{Truth: true}
// (pass iff the subquery is non-empty); NOT EXISTS uses a ForAll quantifier
// with Match{Truth: false} (pass iff the subquery is empty).
type Match struct {
	Q     *Quantifier
	Truth bool
}

func (*ColRef) expr() {}
func (*Const) expr()  {}
func (*Param) expr()  {}
func (*Cmp) expr()    {}
func (*Logic) expr()  {}
func (*Not) expr()    {}
func (*Arith) expr()  {}
func (*Neg) expr()    {}
func (*IsNull) expr() {}
func (*Like) expr()   {}
func (*Concat) expr() {}
func (*Match) expr()  {}
func (*Case) expr()   {}
func (*Func) expr()   {}

func (e *ColRef) String() string {
	name := "?"
	if e.Q != nil {
		if b := e.Q.Ranges; b != nil && e.Ord < len(b.Output) && b.Output[e.Ord].Name != "" {
			name = b.Output[e.Ord].Name
		} else {
			name = fmt.Sprintf("c%d", e.Ord)
		}
		return e.Q.Name + "." + name
	}
	return fmt.Sprintf("?.c%d", e.Ord)
}

func (e *Const) String() string {
	if e.Val.T == datum.TString && !e.Val.IsNull() {
		return "'" + e.Val.S + "'"
	}
	return e.Val.Format()
}

func (e *Param) String() string {
	return fmt.Sprintf("?%d", e.Ord+1)
}

func (e *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", e.L, e.Op, e.R)
}

func (e *Logic) String() string {
	op := " AND "
	if e.Op == Or {
		op = " OR "
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, op) + ")"
}

func (e *Not) String() string { return "NOT (" + e.X.String() + ")" }

func (e *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e *Neg) String() string { return "-(" + e.X.String() + ")" }

func (e *IsNull) String() string {
	if e.Negate {
		return e.X.String() + " IS NOT NULL"
	}
	return e.X.String() + " IS NULL"
}

func (e *Like) String() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sLIKE '%s'", e.X, not, e.Pattern)
}

func (e *Concat) String() string {
	return fmt.Sprintf("(%s || %s)", e.L, e.R)
}

func (e *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.When, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", e.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

func (e *Func) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (e *Match) String() string {
	t := "FALSE"
	if e.Truth {
		t = "TRUE"
	}
	return fmt.Sprintf("match(%s)=%s", e.Q.Name, t)
}

// VisitRefs calls fn for every ColRef in e.
func VisitRefs(e Expr, fn func(*ColRef)) {
	switch x := e.(type) {
	case *ColRef:
		fn(x)
	case *Const:
	case *Param:
	case *Cmp:
		VisitRefs(x.L, fn)
		VisitRefs(x.R, fn)
	case *Logic:
		for _, a := range x.Args {
			VisitRefs(a, fn)
		}
	case *Not:
		VisitRefs(x.X, fn)
	case *Arith:
		VisitRefs(x.L, fn)
		VisitRefs(x.R, fn)
	case *Neg:
		VisitRefs(x.X, fn)
	case *IsNull:
		VisitRefs(x.X, fn)
	case *Like:
		VisitRefs(x.X, fn)
	case *Concat:
		VisitRefs(x.L, fn)
		VisitRefs(x.R, fn)
	case *Match:
		// Surface the quantifier association as a reference to its first
		// output column (every box has at least one output).
		fn(&ColRef{Q: x.Q, Ord: 0})
	case *Case:
		for _, w := range x.Whens {
			VisitRefs(w.When, fn)
			VisitRefs(w.Then, fn)
		}
		if x.Else != nil {
			VisitRefs(x.Else, fn)
		}
	case *Func:
		for _, a := range x.Args {
			VisitRefs(a, fn)
		}
	}
}

// RefsQuantifiers returns the set of quantifiers referenced by e.
func RefsQuantifiers(e Expr) map[*Quantifier]bool {
	out := map[*Quantifier]bool{}
	VisitRefs(e, func(c *ColRef) { out[c.Q] = true })
	return out
}

// OnlyRefs reports whether every column reference in e targets a quantifier
// in allowed.
func OnlyRefs(e Expr, allowed map[*Quantifier]bool) bool {
	ok := true
	VisitRefs(e, func(c *ColRef) {
		if !allowed[c.Q] {
			ok = false
		}
	})
	return ok
}

// RewriteRefs returns a copy of e with every ColRef replaced by
// fn(ref); fn returning nil keeps the original reference (shared — ColRefs
// are immutable in practice, but callers mutating them must copy first).
func RewriteRefs(e Expr, fn func(*ColRef) Expr) Expr {
	switch x := e.(type) {
	case *ColRef:
		if r := fn(x); r != nil {
			return r
		}
		return &ColRef{Q: x.Q, Ord: x.Ord}
	case *Const:
		return &Const{Val: x.Val}
	case *Param:
		return &Param{Ord: x.Ord, Type: x.Type}
	case *Cmp:
		return &Cmp{Op: x.Op, L: RewriteRefs(x.L, fn), R: RewriteRefs(x.R, fn)}
	case *Logic:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteRefs(a, fn)
		}
		return &Logic{Op: x.Op, Args: args}
	case *Not:
		return &Not{X: RewriteRefs(x.X, fn)}
	case *Arith:
		return &Arith{Op: x.Op, L: RewriteRefs(x.L, fn), R: RewriteRefs(x.R, fn)}
	case *Neg:
		return &Neg{X: RewriteRefs(x.X, fn)}
	case *IsNull:
		return &IsNull{X: RewriteRefs(x.X, fn), Negate: x.Negate}
	case *Like:
		return &Like{X: RewriteRefs(x.X, fn), Pattern: x.Pattern, Negate: x.Negate}
	case *Concat:
		return &Concat{L: RewriteRefs(x.L, fn), R: RewriteRefs(x.R, fn)}
	case *Case:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{When: RewriteRefs(w.When, fn), Then: RewriteRefs(w.Then, fn)}
		}
		var els Expr
		if x.Else != nil {
			els = RewriteRefs(x.Else, fn)
		}
		return &Case{Whens: whens, Else: els}
	case *Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteRefs(a, fn)
		}
		return &Func{Name: x.Name, Args: args}
	case *Match:
		r := fn(&ColRef{Q: x.Q, Ord: 0})
		if r == nil {
			return &Match{Q: x.Q, Truth: x.Truth}
		}
		cr, ok := r.(*ColRef)
		if !ok {
			panic("qgm: Match quantifier rewritten to a non-reference")
		}
		return &Match{Q: cr.Q, Truth: x.Truth}
	}
	panic(fmt.Sprintf("qgm: RewriteRefs on unknown expr %T", e))
}

// CopyExpr deep-copies e, remapping quantifier references through remap;
// quantifiers absent from remap are kept (outer correlation).
func CopyExpr(e Expr, remap map[*Quantifier]*Quantifier) Expr {
	return RewriteRefs(e, func(c *ColRef) Expr {
		if nq, ok := remap[c.Q]; ok {
			return &ColRef{Q: nq, Ord: c.Ord}
		}
		return &ColRef{Q: c.Q, Ord: c.Ord}
	})
}

// EqualExpr reports structural equality of two expressions (same quantifier
// objects, same ordinals, same operators and constants).
func EqualExpr(a, b Expr) bool {
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Q == y.Q && x.Ord == y.Ord
	case *Const:
		y, ok := b.(*Const)
		if !ok {
			return false
		}
		if x.Val.IsNull() || y.Val.IsNull() {
			return x.Val.IsNull() && y.Val.IsNull()
		}
		return x.Val.T == y.Val.T && datum.DistinctEqual(x.Val, y.Val)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Ord == y.Ord
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *Logic:
		y, ok := b.(*Logic)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Not:
		y, ok := b.(*Not)
		return ok && EqualExpr(x.X, y.X)
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *Neg:
		y, ok := b.(*Neg)
		return ok && EqualExpr(x.X, y.X)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negate == y.Negate && EqualExpr(x.X, y.X)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Negate == y.Negate && x.Pattern == y.Pattern && EqualExpr(x.X, y.X)
	case *Concat:
		y, ok := b.(*Concat)
		return ok && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *Match:
		y, ok := b.(*Match)
		return ok && x.Q == y.Q && x.Truth == y.Truth
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) {
			return false
		}
		for i := range x.Whens {
			if !EqualExpr(x.Whens[i].When, y.Whens[i].When) || !EqualExpr(x.Whens[i].Then, y.Whens[i].Then) {
				return false
			}
		}
		if (x.Else == nil) != (y.Else == nil) {
			return false
		}
		return x.Else == nil || EqualExpr(x.Else, y.Else)
	case *Func:
		y, ok := b.(*Func)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Conjuncts flattens an expression into its top-level AND conjuncts.
func Conjuncts(e Expr) []Expr {
	if l, ok := e.(*Logic); ok && l.Op == And {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}

// AndAll combines conjuncts into a single expression (nil for empty input).
func AndAll(conjuncts []Expr) Expr {
	switch len(conjuncts) {
	case 0:
		return nil
	case 1:
		return conjuncts[0]
	}
	return &Logic{Op: And, Args: conjuncts}
}

// TypeOf infers the result type of an expression. Untypeable expressions
// (e.g. comparisons used as values) report datum.TBool; unknown NULLs report
// datum.TNull.
func TypeOf(e Expr) datum.Type {
	switch x := e.(type) {
	case *ColRef:
		if x.Q != nil && x.Q.Ranges != nil && x.Ord < len(x.Q.Ranges.Output) {
			return x.Q.Ranges.Output[x.Ord].Type
		}
		return datum.TNull
	case *Const:
		return x.Val.T
	case *Param:
		return x.Type
	case *Cmp, *Logic, *Not, *IsNull, *Like, *Match:
		return datum.TBool
	case *Arith:
		lt, rt := TypeOf(x.L), TypeOf(x.R)
		if x.Op == datum.Div || lt == datum.TFloat || rt == datum.TFloat {
			if x.Op == datum.Div && lt == datum.TInt && rt == datum.TInt {
				return datum.TInt
			}
			return datum.TFloat
		}
		if lt == datum.TInt && rt == datum.TInt {
			return datum.TInt
		}
		return datum.TFloat
	case *Neg:
		return TypeOf(x.X)
	case *Concat:
		return datum.TString
	case *Case:
		t := datum.TNull
		for _, w := range x.Whens {
			if wt := TypeOf(w.Then); wt != datum.TNull {
				if t == datum.TNull {
					t = wt
				} else if t != wt {
					if numericType(t) && numericType(wt) {
						t = datum.TFloat
					}
				}
			}
		}
		if x.Else != nil {
			if et := TypeOf(x.Else); et != datum.TNull && t == datum.TNull {
				t = et
			}
		}
		return t
	case *Func:
		switch x.Name {
		case "ABS":
			if len(x.Args) == 1 {
				return TypeOf(x.Args[0])
			}
			return datum.TFloat
		case "LENGTH":
			return datum.TInt
		case "UPPER", "LOWER":
			return datum.TString
		case "COALESCE", "NULLIF":
			for _, a := range x.Args {
				if t := TypeOf(a); t != datum.TNull {
					return t
				}
			}
			return datum.TNull
		}
		return datum.TNull
	}
	return datum.TNull
}

func numericType(t datum.Type) bool { return t == datum.TInt || t == datum.TFloat }
