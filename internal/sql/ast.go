package sql

import (
	"starmagic/internal/datum"
)

// Statement is any top-level SQL statement.
type Statement interface{ stmt() }

// CreateTable is CREATE TABLE name (col type, ..., PRIMARY KEY (cols)).
type CreateTable struct {
	Name       string
	Cols       []ColDef
	PrimaryKey []string
	Uniques    [][]string
}

// ColDef is one column definition.
type ColDef struct {
	Name string
	Type datum.Type
}

// CreateView is CREATE VIEW name [(cols)] AS query.
type CreateView struct {
	Name  string
	Cols  []string
	Query QueryExpr
	// SQL is the view body text, stored in the catalog for re-expansion.
	SQL string
}

// CreateIndex is CREATE INDEX name ON table (cols).
type CreateIndex struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
}

// Insert is INSERT INTO table VALUES (...), (...) or INSERT INTO table
// SELECT ... (Query set, Rows nil).
type Insert struct {
	Table string
	Rows  [][]Expr
	Query QueryExpr
}

// Delete is DELETE FROM table [WHERE pred].
type Delete struct {
	Table string
	Where Expr
}

// Update is UPDATE table SET col = expr, ... [WHERE pred].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expression pair.
type Assignment struct {
	Column string
	Expr   Expr
}

// DropView is DROP VIEW name.
type DropView struct {
	Name string
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
}

// SelectStatement wraps a query expression used as a statement.
type SelectStatement struct {
	Query QueryExpr
}

func (*CreateTable) stmt()     {}
func (*CreateView) stmt()      {}
func (*CreateIndex) stmt()     {}
func (*Insert) stmt()          {}
func (*Delete) stmt()          {}
func (*Update) stmt()          {}
func (*DropView) stmt()        {}
func (*DropTable) stmt()       {}
func (*SelectStatement) stmt() {}

// QueryExpr is a query: a single SELECT block or a set operation over query
// expressions. It corresponds to the paper's "blob" (§2).
type QueryExpr interface{ queryExpr() }

// Select is a single SELECT block — the paper's "block" (§2). INNER JOIN
// ... ON syntax is desugared by the parser: joined tables land in From and
// the ON conditions are conjoined into Where (QGM represents all inner
// joins as quantifier sets with predicates).
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 means no limit
}

// SetOpKind is a set operation.
type SetOpKind uint8

// Set operations.
const (
	Union SetOpKind = iota
	Intersect
	Except
)

func (k SetOpKind) String() string {
	switch k {
	case Union:
		return "UNION"
	case Intersect:
		return "INTERSECT"
	}
	return "EXCEPT"
}

// SetOp is L op R, with ALL controlling bag vs set semantics.
type SetOp struct {
	Op    SetOpKind
	All   bool
	Left  QueryExpr
	Right QueryExpr
}

func (*Select) queryExpr() {}
func (*SetOp) queryExpr()  {}

// SelectItem is one element of the select list.
type SelectItem struct {
	// Star is SELECT * (Qualifier empty) or SELECT t.* (Qualifier set).
	Star      bool
	Qualifier string
	Expr      Expr
	Alias     string
}

// TableRef is an element of the FROM clause: a named table/view with an
// optional alias, or a derived table (subquery) with a mandatory alias.
type TableRef struct {
	Table    string
	Alias    string
	Subquery QueryExpr
}

// Name returns the reference's binding name (alias if present).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a scalar or predicate expression.
type Expr interface{ expr() }

// ColRef is a possibly qualified column reference.
type ColRef struct {
	Qualifier string // table alias, may be empty
	Name      string
}

// Lit is a literal value.
type Lit struct {
	Value datum.D
}

// Param is a positional placeholder (`?`). Ord is the zero-based position
// in left-to-right source order; the parser assigns it.
type Param struct {
	Ord int
}

// BinKind enumerates binary operators.
type BinKind uint8

// Binary operators, in ascending precedence groups.
const (
	OpOr BinKind = iota
	OpAnd
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

func (k BinKind) String() string {
	switch k {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	}
	return "?"
}

// CmpOp converts a comparison BinKind to the datum operator.
func (k BinKind) CmpOp() datum.CmpOp {
	switch k {
	case OpEQ:
		return datum.EQ
	case OpNE:
		return datum.NE
	case OpLT:
		return datum.LT
	case OpLE:
		return datum.LE
	case OpGT:
		return datum.GT
	case OpGE:
		return datum.GE
	}
	panic("sql: CmpOp on non-comparison")
}

// Bin is a binary expression.
type Bin struct {
	Op   BinKind
	L, R Expr
}

// UnaryKind enumerates unary operators.
type UnaryKind uint8

// Unary operators.
const (
	OpNot UnaryKind = iota
	OpNeg
)

// Unary is NOT x or -x.
type Unary struct {
	Op UnaryKind
	X  Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// Like is x [NOT] LIKE pattern (pattern must be a literal).
type Like struct {
	X       Expr
	Pattern string
	Not     bool
}

// In is x [NOT] IN (list) or x [NOT] IN (subquery).
type In struct {
	X    Expr
	List []Expr
	Sub  QueryExpr
	Not  bool
}

// Exists is [NOT] EXISTS (subquery).
type Exists struct {
	Sub QueryExpr
	Not bool
}

// QuantKind distinguishes ANY/SOME from ALL.
type QuantKind uint8

// Quantifier kinds for quantified comparisons.
const (
	Any QuantKind = iota
	All
)

// QuantCmp is x op ANY (sub) or x op ALL (sub).
type QuantCmp struct {
	X     Expr
	Op    BinKind // a comparison operator
	Quant QuantKind
	Sub   QueryExpr
}

// ScalarSub is a scalar subquery used as an expression.
type ScalarSub struct {
	Sub QueryExpr
}

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	When Expr
	Then Expr
}

// Case is CASE [operand] WHEN ... THEN ... [ELSE ...] END. With an operand
// (simple CASE) each WHEN is compared by equality; without (searched CASE)
// each WHEN is a predicate.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil means NULL
}

// FuncCall is a function application. Aggregates are recognized by name in
// semantic analysis; Star marks COUNT(*).
type FuncCall struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
}

func (*ColRef) expr()    {}
func (*Lit) expr()       {}
func (*Param) expr()     {}
func (*Bin) expr()       {}
func (*Unary) expr()     {}
func (*IsNull) expr()    {}
func (*Between) expr()   {}
func (*Like) expr()      {}
func (*In) expr()        {}
func (*Exists) expr()    {}
func (*QuantCmp) expr()  {}
func (*ScalarSub) expr() {}
func (*FuncCall) expr()  {}
func (*Case) expr()      {}
