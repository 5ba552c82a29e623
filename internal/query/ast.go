// Package query implements Sedna's query stack (§3, §5): a parser producing
// a uniform operation tree for XQuery queries, XUpdate statements and DDL
// statements; a static analyzer; the optimizing rewriter with the paper's
// four rule-based techniques (DDO elimination, descendant-or-self combining,
// lazy invariant for-expressions, structural-path extraction); and a
// Volcano-style executor whose physical operations implement the
// open-next-close interface over the schema-driven storage.
package query

import (
	"fmt"

	"sedna/internal/opt"
)

// Expr is any expression of the operation tree.
type Expr interface {
	expr()
}

// Axis enumerates XPath axes.
type Axis int

// Supported axes.
const (
	AxisChild Axis = iota + 1
	AxisDescendant
	AxisSelf
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisAttribute
)

func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisSelf:
		return "self"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	case AxisAttribute:
		return "attribute"
	default:
		return fmt.Sprintf("axis(%d)", int(a))
	}
}

// TestKind is the node-test kind of a step.
type TestKind int

// Node tests.
const (
	TestName     TestKind = iota + 1 // name or *
	TestNode                         // node()
	TestText                         // text()
	TestComment                      // comment()
	TestPI                           // processing-instruction()
	TestElement                      // element() / element(name)
	TestAttrTest                     // attribute() / attribute(name)
)

// NodeTest is a step's node test.
type NodeTest struct {
	Kind TestKind
	Name string // "" or "*" = any name
}

// Literal is a string or numeric literal. val is its (shared, immutable)
// value as a sequence, so evaluating it allocates nothing.
type Literal struct {
	String   string
	Number   float64
	IsString bool
	val      []Item
}

func strLit(s string) *Literal  { return &Literal{String: s, IsString: true, val: []Item{str(s)}} }
func numLit(f float64) *Literal { return &Literal{Number: f, val: []Item{num(f)}} }

// VarRef references a variable $Name.
type VarRef struct{ Name string }

// ContextItem is ".".
type ContextItem struct{}

// Root is "/" — the root of the context node's document.
type Root struct{}

// DocCall is doc("name") — resolved specially so the rewriter can detect
// structural paths.
type DocCall struct{ Name string }

// Step is one location step with predicates. The flags are filled by the
// optimizing rewriter.
type Step struct {
	Input Expr // context sequence (nil only inside PathExpr chains)
	Axis  Axis
	Test  NodeTest
	Preds []Expr

	// NeedDDO is true when the step's result must be sorted into
	// distinct-document-order at runtime; the rewriter clears it when the
	// inferred properties prove it redundant (§5.1.1).
	NeedDDO bool

	// Structural is set when this step ends a structural location path
	// (descending axes from a document node, no predicates), enabling the
	// schema-level evaluation of §5.1.4.
	Structural bool

	// Plan is the cost-based optimizer's physical decision for this step
	// (nil when the optimizer did not run or had nothing to decide).
	Plan *StepPlan

	// wholeContext is set by Analyze when a predicate may ask for last():
	// the step's candidates are then collected per context node before any
	// predicate runs, instead of being filtered batch by batch.
	wholeContext bool
}

// StepPlan is one step's costed physical plan: the estimated output
// cardinality, the alternatives considered (EXPLAIN renders them), and the
// chosen access method.
type StepPlan struct {
	EstRows float64
	Alts    []opt.Alt

	// Probe, when set, replaces the step's evaluation with a value-index
	// probe plus a full predicate recheck.
	Probe *IndexProbe

	// Workers is the planned fan-out for a structural scan: 0 = no decision
	// (executor heuristics apply), 1 = forced serial, ≥2 = parallel with
	// that many workers.
	Workers int

	// Sampled reports that the statistics behind the estimates came from a
	// sampled ANALYZE (reservoir histograms); EXPLAIN annotates the step.
	Sampled bool

	// blocks is the estimated chain-block volume behind the step, kept for
	// the optimizer's prefetch decision.
	blocks float64
}

// IndexProbe is a planned value-index access: probe the named index with
// the comparison, then recheck the step's predicates on the candidates.
type IndexProbe struct {
	Index    string
	Op       opt.CmpOp
	IsString bool
	S        string
	F        float64
}

// Filter is a primary expression with predicates, e.g. (expr)[p].
type Filter struct {
	Input Expr
	Preds []Expr
}

// Sequence is the comma operator.
type Sequence struct{ Items []Expr }

// Binary operators.
type BinOp int

// Binary operator kinds.
const (
	OpOr BinOp = iota + 1
	OpAnd
	OpEq  // general =
	OpNe  // !=
	OpLt  // <
	OpLe  // <=
	OpGt  // >
	OpGe  // >=
	OpVEq // value eq
	OpVNe
	OpVLt
	OpVLe
	OpVGt
	OpVGe
	OpIs     // node identity
	OpBefore // <<
	OpAfter  // >>
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
	OpUnion
	OpIntersect
	OpExcept
	OpTo // range 1 to 5
)

// Binary is a binary expression.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

// Unary is unary minus.
type Unary struct{ X Expr }

// IfExpr is if (c) then t else e.
type IfExpr struct{ Cond, Then, Else Expr }

// Quantified is some/every $var in seq satisfies pred.
type Quantified struct {
	Every bool
	Var   string
	Seq   Expr
	Pred  Expr
}

// ForClause is one for/let binding of a FLWOR expression.
type ForClause struct {
	Let     bool
	Var     string
	PosVar  string // "at $i", for-clauses only
	Seq     Expr
	Lazy    bool // §5.1.3: invariant of all outer for-variables → evaluate once
	CacheID int  // runtime cache slot for lazy clauses
}

// FLWOR is a for-let-where-order-return expression.
type FLWOR struct {
	Clauses []*ForClause
	Where   Expr
	OrderBy []OrderSpec
	Return  Expr
}

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// FuncCall is a function call by QName.
type FuncCall struct {
	Name string
	Args []Expr
}

// ElementCtor is a direct or computed element constructor.
type ElementCtor struct {
	Name    string
	Attrs   []AttrCtor
	Content []Expr

	// Virtual is set by the rewriter when the constructed content is only
	// ever serialized, so the deep copy can be replaced by references
	// (§5.2.1 virtual element constructors).
	Virtual bool
}

// AttrCtor is an attribute constructor inside an element constructor.
type AttrCtor struct {
	Name  string
	Value []Expr // string literals and enclosed expressions
}

// TextCtor is text { expr } or literal text content.
type TextCtor struct{ Content Expr }

// CommentCtor is <!--...--> or comment { expr }.
type CommentCtor struct{ Content Expr }

func (*Literal) expr()     {}
func (*VarRef) expr()      {}
func (*ContextItem) expr() {}
func (*Root) expr()        {}
func (*DocCall) expr()     {}
func (*Step) expr()        {}
func (*Filter) expr()      {}
func (*Sequence) expr()    {}
func (*Binary) expr()      {}
func (*Unary) expr()       {}
func (*IfExpr) expr()      {}
func (*Quantified) expr()  {}
func (*FLWOR) expr()       {}
func (*FuncCall) expr()    {}
func (*ElementCtor) expr() {}
func (*TextCtor) expr()    {}
func (*CommentCtor) expr() {}

// FuncDecl is a user-declared XQuery function from the prolog.
type FuncDecl struct {
	Name   string
	Params []string
	Body   Expr
}

// Prolog holds query prolog declarations.
type Prolog struct {
	Vars  []*ForClause // declare variable $x := expr
	Funcs map[string]*FuncDecl
}

// Statement is a parsed query, update, DDL, EXPLAIN or PROFILE statement.
type Statement struct {
	Prolog *Prolog

	// Exactly one of the following is set.
	Query   Expr
	Update  *Update
	DDL     *DDL
	Explain *ExplainStmt

	// Source is the statement's original text (what the parser consumed);
	// traces and the slow-query log carry it.
	Source string

	// Rewrites records which optimizing-rewriter rules fired on this
	// statement, in application order; EXPLAIN renders them.
	Rewrites []string
}

// ExplainStmt wraps the statement under an EXPLAIN or PROFILE keyword.
// EXPLAIN renders the inner statement's operation tree after rewriting,
// without executing it; PROFILE executes the inner statement under a forced
// trace and renders the resulting span tree.
type ExplainStmt struct {
	Stmt    *Statement
	Profile bool
}

// ReadOnly reports whether executing the statement needs no update
// transaction: queries and plain EXPLAIN are read-only, PROFILE follows the
// statement it executes.
func (st *Statement) ReadOnly() bool {
	if st.Explain != nil {
		if st.Explain.Profile {
			return st.Explain.Stmt.ReadOnly()
		}
		return true
	}
	return st.Query != nil
}

// UpdateKind enumerates XUpdate statement kinds (§3, [17]-style syntax).
type UpdateKind int

// Update kinds.
const (
	UpdInsertInto UpdateKind = iota + 1
	UpdInsertPreceding
	UpdInsertFollowing
	UpdDelete
	UpdReplace
	UpdRename
)

// Update is an XUpdate statement: the first part selects target nodes, the
// second updates them (§5.2).
type Update struct {
	Kind   UpdateKind
	Source Expr   // inserted content / replacement (bound to Var for replace)
	Target Expr   // target node selection
	Var    string // replace: iteration variable
	Name   string // rename: new name
}

// DDLKind enumerates data-definition statements.
type DDLKind int

// DDL kinds.
const (
	DDLCreateDocument DDLKind = iota + 1
	DDLDropDocument
	DDLCreateIndex
	DDLDropIndex
	DDLAnalyze
)

// DDL is a data-definition statement.
type DDL struct {
	Kind    DDLKind
	Name    string // document or index name
	DocName string // CREATE INDEX: target document
	OnPath  Expr   // CREATE INDEX: node path
	ByPath  Expr   // CREATE INDEX: key path relative to node
	AsType  string // "string" | "number"
}
