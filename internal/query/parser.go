package query

import (
	"fmt"
	"strings"
)

// Parser translates a query/statement into the operation tree. One parser
// handles all three statement types (XQuery, XUpdate, DDL), producing the
// uniform representation §3 describes.
type parser struct {
	l *lexer
}

// Parse parses a complete statement.
func Parse(src string) (*Statement, error) {
	p := &parser{l: newLexer(src)}
	st, err := p.parseStatement(src, true)
	if err != nil {
		return nil, err
	}
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, p.l.errf(t.pos, "unexpected %q after statement", t.text)
	}
	return st, nil
}

// parseStatement parses one statement body. allowExplain admits the
// EXPLAIN/PROFILE prefix (once: they cannot nest).
func (p *parser) parseStatement(src string, allowExplain bool) (*Statement, error) {
	st := &Statement{
		Prolog: &Prolog{Funcs: make(map[string]*FuncDecl)},
		Source: strings.TrimSpace(src),
	}
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokName && (t.text == "EXPLAIN" || t.text == "PROFILE") {
		if !allowExplain {
			return nil, p.l.errf(t.pos, "%s cannot be nested", t.text)
		}
		p.l.next()
		t2, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if t2.kind == tokEOF {
			return nil, p.l.errf(t2.pos, "%s requires a statement", t.text)
		}
		inner, err := p.parseStatement(p.l.src[t2.pos:], false)
		if err != nil {
			return nil, err
		}
		st.Explain = &ExplainStmt{Stmt: inner, Profile: t.text == "PROFILE"}
		return st, nil
	}
	if err := p.parseProlog(st.Prolog); err != nil {
		return nil, err
	}
	if t, err = p.l.peek(); err != nil {
		return nil, err
	}
	switch {
	case t.kind == tokName && t.text == "UPDATE":
		u, err := p.parseUpdate()
		if err != nil {
			return nil, err
		}
		st.Update = u
	case t.kind == tokName && (t.text == "CREATE" || t.text == "DROP"):
		d, err := p.parseDDL()
		if err != nil {
			return nil, err
		}
		st.DDL = d
	case t.kind == tokName && t.text == "ANALYZE":
		d, err := p.parseAnalyze()
		if err != nil {
			return nil, err
		}
		st.DDL = d
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Query = e
	}
	return st, nil
}

// ParseExpr parses a bare expression (used by embedded attribute content).
func ParseExpr(src string) (Expr, error) {
	p := &parser{l: newLexer(src)}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, p.l.errf(t.pos, "unexpected %q", t.text)
	}
	return e, nil
}

// ---- token helpers ----

func (p *parser) expectSymbol(s string) error {
	t, err := p.l.next()
	if err != nil {
		return err
	}
	if t.kind != tokSymbol || t.text != s {
		return p.l.errf(t.pos, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) expectName(s string) error {
	t, err := p.l.next()
	if err != nil {
		return err
	}
	if t.kind != tokName || t.text != s {
		return p.l.errf(t.pos, "expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *parser) isSymbol(t token, s string) bool { return t.kind == tokSymbol && t.text == s }
func (p *parser) isName(t token, s string) bool   { return t.kind == tokName && t.text == s }

// acceptSymbol consumes s if it is next.
func (p *parser) acceptSymbol(s string) (bool, error) {
	t, err := p.l.peek()
	if err != nil {
		return false, err
	}
	if p.isSymbol(t, s) {
		p.l.next()
		return true, nil
	}
	return false, nil
}

func (p *parser) acceptName(s string) (bool, error) {
	t, err := p.l.peek()
	if err != nil {
		return false, err
	}
	if p.isName(t, s) {
		p.l.next()
		return true, nil
	}
	return false, nil
}

// ---- prolog ----

func (p *parser) parseProlog(pr *Prolog) error {
	for {
		t, err := p.l.peek()
		if err != nil {
			return err
		}
		if !p.isName(t, "declare") {
			return nil
		}
		t2, err := p.l.peekN(1)
		if err != nil {
			return err
		}
		switch {
		case p.isName(t2, "variable"):
			p.l.next()
			p.l.next()
			v, err := p.l.next()
			if err != nil {
				return err
			}
			if v.kind != tokVar {
				return p.l.errf(v.pos, "expected variable name")
			}
			if err := p.expectSymbol(":="); err != nil {
				return err
			}
			e, err := p.parseExprSingle()
			if err != nil {
				return err
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
			pr.Vars = append(pr.Vars, &ForClause{Let: true, Var: v.text, Seq: e})
		case p.isName(t2, "function"):
			p.l.next()
			p.l.next()
			name, err := p.l.next()
			if err != nil {
				return err
			}
			if name.kind != tokName {
				return p.l.errf(name.pos, "expected function name")
			}
			if err := p.expectSymbol("("); err != nil {
				return err
			}
			var params []string
			for {
				t, err := p.l.peek()
				if err != nil {
					return err
				}
				if p.isSymbol(t, ")") {
					p.l.next()
					break
				}
				v, err := p.l.next()
				if err != nil {
					return err
				}
				if v.kind != tokVar {
					return p.l.errf(v.pos, "expected parameter variable")
				}
				params = append(params, v.text)
				if ok, err := p.acceptSymbol(","); err != nil {
					return err
				} else if !ok {
					if err := p.expectSymbol(")"); err != nil {
						return err
					}
					break
				}
			}
			if err := p.expectSymbol("{"); err != nil {
				return err
			}
			body, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expectSymbol("}"); err != nil {
				return err
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
			pr.Funcs[name.text] = &FuncDecl{Name: name.text, Params: params, Body: body}
		default:
			return p.l.errf(t2.pos, "unsupported declaration %q", t2.text)
		}
	}
}

// ---- expressions ----

func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	items := []Expr{first}
	for {
		ok, err := p.acceptSymbol(",")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return &Sequence{Items: items}, nil
}

func (p *parser) parseExprSingle() (Expr, error) {
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if t.kind == tokName {
		t2, err := p.l.peekN(1)
		if err != nil {
			return nil, err
		}
		switch {
		case (t.text == "for" || t.text == "let") && t2.kind == tokVar:
			return p.parseFLWOR()
		case (t.text == "some" || t.text == "every") && t2.kind == tokVar:
			return p.parseQuantified()
		case t.text == "if" && p.isSymbol(t2, "("):
			return p.parseIf()
		}
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() (*FLWOR, error) {
	f := &FLWOR{}
	for {
		t, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if !(t.kind == tokName && (t.text == "for" || t.text == "let")) {
			break
		}
		isLet := t.text == "let"
		p.l.next()
		for {
			v, err := p.l.next()
			if err != nil {
				return nil, err
			}
			if v.kind != tokVar {
				return nil, p.l.errf(v.pos, "expected variable in %s clause", t.text)
			}
			cl := &ForClause{Let: isLet, Var: v.text}
			if !isLet {
				if ok, err := p.acceptName("at"); err != nil {
					return nil, err
				} else if ok {
					pv, err := p.l.next()
					if err != nil {
						return nil, err
					}
					if pv.kind != tokVar {
						return nil, p.l.errf(pv.pos, "expected position variable after 'at'")
					}
					cl.PosVar = pv.text
				}
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
			} else {
				if err := p.expectSymbol(":="); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			cl.Seq = e
			f.Clauses = append(f.Clauses, cl)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if len(f.Clauses) == 0 {
		return nil, fmt.Errorf("query: FLWOR without clauses")
	}
	if ok, err := p.acceptName("where"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	if ok, err := p.acceptName("order"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			k, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: k}
			if ok, err := p.acceptName("descending"); err != nil {
				return nil, err
			} else if ok {
				spec.Descending = true
			} else if ok, err := p.acceptName("ascending"); err != nil {
				return nil, err
			} else if ok {
				_ = ok
			}
			f.OrderBy = append(f.OrderBy, spec)
			if ok, err := p.acceptSymbol(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	r, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	f.Return = r
	return f, nil
}

func (p *parser) parseQuantified() (Expr, error) {
	t, _ := p.l.next() // some | every
	v, err := p.l.next()
	if err != nil {
		return nil, err
	}
	if v.kind != tokVar {
		return nil, p.l.errf(v.pos, "expected variable")
	}
	if err := p.expectName("in"); err != nil {
		return nil, err
	}
	seq, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	pred, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &Quantified{Every: t.text == "every", Var: v.text, Seq: seq, Pred: pred}, nil
}

func (p *parser) parseIf() (Expr, error) {
	p.l.next() // if
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	c, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	th, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	el, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &IfExpr{Cond: c, Then: th, Else: el}, nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptName("or")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, Left: left, Right: right}
	}
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptName("and")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, Left: left, Right: right}
	}
}

var compOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"eq": OpVEq, "ne": OpVNe, "lt": OpVLt, "le": OpVLe, "gt": OpVGt, "ge": OpVGe,
	"is": OpIs, "<<": OpBefore, ">>": OpAfter,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	var op BinOp
	switch {
	case t.kind == tokSymbol:
		op = compOps[t.text]
	case t.kind == tokName:
		op = compOps[t.text]
	}
	if op == 0 {
		return left, nil
	}
	p.l.next()
	right, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseRange() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	ok, err := p.acceptName("to")
	if err != nil {
		return nil, err
	}
	if !ok {
		return left, nil
	}
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: OpTo, Left: left, Right: right}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		var op BinOp
		if p.isSymbol(t, "+") {
			op = OpAdd
		} else if p.isSymbol(t, "-") {
			op = OpSub
		} else {
			return left, nil
		}
		p.l.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		var op BinOp
		switch {
		case p.isSymbol(t, "*"):
			op = OpMul
		case p.isName(t, "div"):
			op = OpDiv
		case p.isName(t, "idiv"):
			op = OpIDiv
		case p.isName(t, "mod"):
			op = OpMod
		default:
			return left, nil
		}
		p.l.next()
		right, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnion() (Expr, error) {
	left, err := p.parseIntersect()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if !p.isSymbol(t, "|") && !p.isName(t, "union") {
			return left, nil
		}
		p.l.next()
		right, err := p.parseIntersect()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpUnion, Left: left, Right: right}
	}
}

func (p *parser) parseIntersect() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		var op BinOp
		if p.isName(t, "intersect") {
			op = OpIntersect
		} else if p.isName(t, "except") {
			op = OpExcept
		} else {
			return left, nil
		}
		p.l.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	neg := false
	for {
		ok, err := p.acceptSymbol("-")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		neg = !neg
	}
	e, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if neg {
		return &Unary{X: e}, nil
	}
	return e, nil
}

// ---- path expressions ----

func (p *parser) parsePath() (Expr, error) {
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	var input Expr
	switch {
	case p.isSymbol(t, "/"):
		p.l.next()
		input = &Root{}
		// A lone "/" is the document node.
		t2, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if !p.startsStep(t2) {
			return input, nil
		}
		input, err = p.parseStepExpr(input)
		if err != nil {
			return nil, err
		}
	case p.isSymbol(t, "//"):
		p.l.next()
		dos := &Step{Input: &Root{}, Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}, NeedDDO: true}
		e, err := p.parseStepExpr(dos)
		if err != nil {
			return nil, err
		}
		input = e
	default:
		e, err := p.parseStepExpr(nil)
		if err != nil {
			return nil, err
		}
		input = e
	}
	return p.parseRelative(input)
}

func (p *parser) parseRelative(input Expr) (Expr, error) {
	for {
		t, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		switch {
		case p.isSymbol(t, "/"):
			p.l.next()
			e, err := p.parseStepExpr(input)
			if err != nil {
				return nil, err
			}
			input = e
		case p.isSymbol(t, "//"):
			p.l.next()
			dos := &Step{Input: input, Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}, NeedDDO: true}
			e, err := p.parseStepExpr(dos)
			if err != nil {
				return nil, err
			}
			input = e
		default:
			return input, nil
		}
	}
}

// startsStep reports whether the token can begin a location step or primary
// expression.
func (p *parser) startsStep(t token) bool {
	switch t.kind {
	case tokName, tokVar, tokString, tokNumber:
		return true
	case tokSymbol:
		switch t.text {
		case "(", ".", "..", "@", "*", "$", "<":
			return true
		}
	}
	return false
}

var axisNames = map[string]Axis{
	"child": AxisChild, "descendant": AxisDescendant, "self": AxisSelf,
	"descendant-or-self": AxisDescendantOrSelf, "parent": AxisParent,
	"ancestor": AxisAncestor, "ancestor-or-self": AxisAncestorOrSelf,
	"following-sibling": AxisFollowingSibling, "preceding-sibling": AxisPrecedingSibling,
	"attribute": AxisAttribute,
}

// kind-test names.
var kindTests = map[string]TestKind{
	"text": TestText, "node": TestNode, "comment": TestComment,
	"processing-instruction": TestPI, "element": TestElement, "attribute": TestAttrTest,
}

// parseStepExpr parses one step of a relative path: either an axis step
// (with input as its context) or, when input is nil, possibly a primary
// expression with predicates.
func (p *parser) parseStepExpr(input Expr) (Expr, error) {
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}

	// Reverse step "..".
	if p.isSymbol(t, "..") {
		p.l.next()
		st := &Step{Input: input, Axis: AxisParent, Test: NodeTest{Kind: TestNode}, NeedDDO: true}
		return p.parseStepPredicates(st)
	}
	// Attribute abbreviation "@name".
	if p.isSymbol(t, "@") {
		p.l.next()
		test, err := p.parseNodeTest()
		if err != nil {
			return nil, err
		}
		st := &Step{Input: input, Axis: AxisAttribute, Test: test, NeedDDO: true}
		return p.parseStepPredicates(st)
	}
	// Wildcard step.
	if p.isSymbol(t, "*") {
		p.l.next()
		st := &Step{Input: input, Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: "*"}, NeedDDO: true}
		return p.parseStepPredicates(st)
	}
	// Explicit axis.
	if t.kind == tokName {
		// Computed constructors shadow kind-test names at the start of a
		// relative path: element name {...}, text {...}, comment {...}.
		if input == nil {
			t2, err := p.l.peekN(1)
			if err != nil {
				return nil, err
			}
			if (t.text == "element" && t2.kind == tokName) ||
				((t.text == "text" || t.text == "comment") && p.isSymbol(t2, "{")) {
				return p.parsePostfix()
			}
		}
		if axis, ok := axisNames[t.text]; ok {
			t2, err := p.l.peekN(1)
			if err != nil {
				return nil, err
			}
			if p.isSymbol(t2, "::") {
				p.l.next()
				p.l.next()
				test, err := p.parseNodeTest()
				if err != nil {
					return nil, err
				}
				st := &Step{Input: input, Axis: axis, Test: test, NeedDDO: true}
				return p.parseStepPredicates(st)
			}
		}
		// Kind test as child step: text(), node(), ...
		if _, ok := kindTests[t.text]; ok {
			t2, err := p.l.peekN(1)
			if err != nil {
				return nil, err
			}
			if p.isSymbol(t2, "(") {
				test, err := p.parseNodeTest()
				if err != nil {
					return nil, err
				}
				axis := AxisChild
				if test.Kind == TestAttrTest {
					axis = AxisAttribute
				}
				st := &Step{Input: input, Axis: axis, Test: test, NeedDDO: true}
				return p.parseStepPredicates(st)
			}
		}
		// Function call?
		t2, err := p.l.peekN(1)
		if err != nil {
			return nil, err
		}
		if p.isSymbol(t2, "(") {
			if input != nil {
				// Function call in a non-leading step: evaluate per context
				// item is not supported; treat as error for clarity.
				return nil, p.l.errf(t.pos, "function call %q cannot follow '/'", t.text)
			}
			return p.parsePostfix()
		}
		// Plain name: child step.
		p.l.next()
		st := &Step{Input: input, Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: t.text}, NeedDDO: true}
		return p.parseStepPredicates(st)
	}

	// Primary expression (only valid at the start of a relative path).
	if input != nil {
		return nil, p.l.errf(t.pos, "expected location step, got %q", t.text)
	}
	return p.parsePostfix()
}

func (p *parser) parseNodeTest() (NodeTest, error) {
	t, err := p.l.next()
	if err != nil {
		return NodeTest{}, err
	}
	if p.isSymbol(t, "*") {
		return NodeTest{Kind: TestName, Name: "*"}, nil
	}
	if t.kind != tokName {
		return NodeTest{}, p.l.errf(t.pos, "expected node test, got %q", t.text)
	}
	if kind, ok := kindTests[t.text]; ok {
		t2, err := p.l.peek()
		if err != nil {
			return NodeTest{}, err
		}
		if p.isSymbol(t2, "(") {
			p.l.next()
			name := ""
			t3, err := p.l.peek()
			if err != nil {
				return NodeTest{}, err
			}
			if t3.kind == tokName || t3.kind == tokString {
				p.l.next()
				name = t3.text
			} else if p.isSymbol(t3, "*") {
				p.l.next()
				name = "*"
			}
			if err := p.expectSymbol(")"); err != nil {
				return NodeTest{}, err
			}
			return NodeTest{Kind: kind, Name: name}, nil
		}
	}
	return NodeTest{Kind: TestName, Name: t.text}, nil
}

func (p *parser) parseStepPredicates(st *Step) (Expr, error) {
	for {
		ok, err := p.acceptSymbol("[")
		if err != nil {
			return nil, err
		}
		if !ok {
			return st, nil
		}
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		st.Preds = append(st.Preds, pred)
	}
}

// parsePostfix parses a primary expression with optional predicates.
func (p *parser) parsePostfix() (Expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	var preds []Expr
	for {
		ok, err := p.acceptSymbol("[")
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
	if len(preds) == 0 {
		return prim, nil
	}
	return &Filter{Input: prim, Preds: preds}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case t.kind == tokString:
		p.l.next()
		return strLit(t.text), nil
	case t.kind == tokNumber:
		p.l.next()
		return numLit(t.num), nil
	case t.kind == tokVar:
		p.l.next()
		return &VarRef{Name: t.text}, nil
	case p.isSymbol(t, "."):
		p.l.next()
		return &ContextItem{}, nil
	case p.isSymbol(t, "("):
		p.l.next()
		t2, err := p.l.peek()
		if err != nil {
			return nil, err
		}
		if p.isSymbol(t2, ")") {
			p.l.next()
			return &Sequence{}, nil // empty sequence
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.isSymbol(t, "<"):
		return p.parseDirectConstructor(t.pos)
	case t.kind == tokName:
		t2, err := p.l.peekN(1)
		if err != nil {
			return nil, err
		}
		// Computed constructors.
		if p.isSymbol(t2, "{") {
			switch t.text {
			case "text":
				p.l.next()
				p.l.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol("}"); err != nil {
					return nil, err
				}
				return &TextCtor{Content: e}, nil
			case "comment":
				p.l.next()
				p.l.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol("}"); err != nil {
					return nil, err
				}
				return &CommentCtor{Content: e}, nil
			}
		}
		if t.text == "element" && t2.kind == tokName {
			// element name { content }
			p.l.next()
			p.l.next()
			if err := p.expectSymbol("{"); err != nil {
				return nil, err
			}
			var content []Expr
			t3, err := p.l.peek()
			if err != nil {
				return nil, err
			}
			if !p.isSymbol(t3, "}") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				content = []Expr{e}
			}
			if err := p.expectSymbol("}"); err != nil {
				return nil, err
			}
			return &ElementCtor{Name: t2.text, Content: content}, nil
		}
		if p.isSymbol(t2, "(") {
			// Function call.
			p.l.next()
			p.l.next()
			fc := &FuncCall{Name: t.text}
			t3, err := p.l.peek()
			if err != nil {
				return nil, err
			}
			if !p.isSymbol(t3, ")") {
				for {
					arg, err := p.parseExprSingle()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					ok, err := p.acceptSymbol(",")
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			// doc("x") is turned into the dedicated operation so the
			// rewriter can recognise structural paths.
			if fc.Name == "doc" || fc.Name == "fn:doc" {
				if len(fc.Args) != 1 {
					return nil, p.l.errf(t.pos, "doc() takes one argument")
				}
				if lit, ok := fc.Args[0].(*Literal); ok && lit.IsString {
					return &DocCall{Name: lit.String}, nil
				}
				return nil, p.l.errf(t.pos, "doc() requires a string literal")
			}
			return fc, nil
		}
	}
	return nil, p.l.errf(t.pos, "unexpected %q", t.text)
}
