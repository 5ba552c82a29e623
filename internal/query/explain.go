package query

import (
	"fmt"
	"io"
	"strings"
)

// EXPLAIN/PROFILE rendering: a stable, indented, line-oriented view of the
// operation tree after static analysis and rewriting, annotated with the
// flags the optimizing rewriter set and the list of rules that fired.

// Text returns the node test in XPath form.
func (t NodeTest) Text() string {
	switch t.Kind {
	case TestName:
		if t.Name == "" {
			return "*"
		}
		return t.Name
	case TestNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		return "processing-instruction()"
	case TestElement:
		return "element(" + t.Name + ")"
	case TestAttrTest:
		return "attribute(" + t.Name + ")"
	default:
		return fmt.Sprintf("test(%d)", int(t.Kind))
	}
}

// stepText labels one location step: axis::test.
func stepText(s *Step) string { return s.Axis.String() + "::" + s.Test.Text() }

func binOpText(op BinOp) string {
	switch op {
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpVEq:
		return "eq"
	case OpVNe:
		return "ne"
	case OpVLt:
		return "lt"
	case OpVLe:
		return "le"
	case OpVGt:
		return "gt"
	case OpVGe:
		return "ge"
	case OpIs:
		return "is"
	case OpBefore:
		return "<<"
	case OpAfter:
		return ">>"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	case OpIDiv:
		return "idiv"
	case OpMod:
		return "mod"
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpExcept:
		return "except"
	case OpTo:
		return "to"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// ExplainTextStorage renders the statement's optimized operation tree; call
// after Analyze and Rewrite so the rewriter flags and notes are populated.
// With a storage-backend hint: when
// non-empty ("resident" or "paged"), every location step is annotated
// storage=<hint> — the backend the executor will serve the statement's
// documents from (EXPLAIN is static, so the hint reflects the mode switch
// and statement kind, not per-document cache state).
func ExplainTextStorage(st *Statement, storageHint string) string {
	p := planPrinter{storage: storageHint}
	var sb strings.Builder
	kind := statementKind(st)
	access := "update"
	if st.ReadOnly() {
		access = "read-only"
	}
	fmt.Fprintf(&sb, "statement: %s (%s)\n", kind, access)
	if storageHint != "" {
		fmt.Fprintf(&sb, "storage: %s\n", storageHint)
	}
	if len(st.Rewrites) > 0 {
		sb.WriteString("rewrites:\n")
		for _, r := range st.Rewrites {
			fmt.Fprintf(&sb, "  - %s\n", r)
		}
	} else {
		sb.WriteString("rewrites: none\n")
	}
	for _, v := range st.Prolog.Vars {
		fmt.Fprintf(&sb, "declare variable $%s :=\n", v.Var)
		p.writePlan(&sb, v.Seq, 1)
	}
	sb.WriteString("plan:\n")
	switch {
	case st.Query != nil:
		p.writePlan(&sb, st.Query, 1)
		p.writeCosts(&sb)
	case st.Update != nil:
		fmt.Fprintf(&sb, "  update kind=%d\n", int(st.Update.Kind))
		sb.WriteString("  target:\n")
		p.writePlan(&sb, st.Update.Target, 2)
		if st.Update.Source != nil {
			sb.WriteString("  source:\n")
			p.writePlan(&sb, st.Update.Source, 2)
		}
		p.writeCosts(&sb)
	case st.DDL != nil:
		fmt.Fprintf(&sb, "  ddl kind=%d name=%q\n", int(st.DDL.Kind), st.DDL.Name)
		if st.DDL.OnPath != nil {
			sb.WriteString("  on:\n")
			p.writePlan(&sb, st.DDL.OnPath, 2)
		}
	}
	return sb.String()
}

func indent(w io.Writer, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
}

// planPrinter carries rendering options through the recursive plan walk and
// collects the costed steps it encounters for the trailing costs table.
type planPrinter struct {
	storage string  // per-step storage-backend annotation ("" = none)
	costed  []*Step // steps with a cost-based plan, in render order
}

// writeCosts appends the optimizer's costed-alternatives table: one block per
// planned step listing every alternative with its estimated rows and cost,
// the chosen one marked ✓. Empty when no statistics informed the plan.
func (p *planPrinter) writeCosts(w io.Writer) {
	if len(p.costed) == 0 {
		return
	}
	io.WriteString(w, "costs:\n")
	for _, s := range p.costed {
		note := ""
		if s.Plan.Sampled {
			note = " [sampled=true]"
		}
		fmt.Fprintf(w, "  step %s:%s\n", stepText(s), note)
		for _, a := range s.Plan.Alts {
			mark := " "
			if a.Chosen {
				mark = "✓"
			}
			fmt.Fprintf(w, "    %s %-22s est rows %10.0f  cost %12.1f\n", mark, a.Name, a.EstRows, a.Cost)
		}
	}
}

// writePlan renders one expression subtree, children indented under their
// parent, rewriter flags in brackets.
func (p *planPrinter) writePlan(w io.Writer, x Expr, depth int) {
	if x == nil {
		return
	}
	indent(w, depth)
	switch n := x.(type) {
	case *Literal:
		if n.IsString {
			fmt.Fprintf(w, "literal %q\n", n.String)
		} else {
			fmt.Fprintf(w, "literal %v\n", n.Number)
		}
	case *VarRef:
		fmt.Fprintf(w, "var $%s\n", n.Name)
	case *ContextItem:
		fmt.Fprintln(w, "context-item")
	case *Root:
		fmt.Fprintln(w, "root /")
	case *DocCall:
		fmt.Fprintf(w, "doc(%q)\n", n.Name)
	case *Step:
		var flags []string
		if n.NeedDDO {
			flags = append(flags, "ddo")
		}
		if n.Structural {
			flags = append(flags, "structural")
		}
		if len(n.Preds) > 0 {
			flags = append(flags, fmt.Sprintf("preds=%d", len(n.Preds)))
		}
		if p.storage != "" {
			flags = append(flags, "storage="+p.storage)
		}
		if n.Plan != nil {
			for _, a := range n.Plan.Alts {
				if a.Chosen {
					flags = append(flags, "plan="+a.Name)
					break
				}
			}
			p.costed = append(p.costed, n)
		}
		fmt.Fprintf(w, "step %s%s\n", stepText(n), flagText(flags))
		p.writePlan(w, n.Input, depth+1)
		for _, pred := range n.Preds {
			indent(w, depth+1)
			fmt.Fprintln(w, "predicate:")
			p.writePlan(w, pred, depth+2)
		}
	case *Filter:
		fmt.Fprintf(w, "filter preds=%d\n", len(n.Preds))
		p.writePlan(w, n.Input, depth+1)
		for _, pred := range n.Preds {
			p.writePlan(w, pred, depth+1)
		}
	case *Sequence:
		fmt.Fprintf(w, "sequence items=%d\n", len(n.Items))
		for _, it := range n.Items {
			p.writePlan(w, it, depth+1)
		}
	case *Binary:
		fmt.Fprintf(w, "binary %s\n", binOpText(n.Op))
		p.writePlan(w, n.Left, depth+1)
		p.writePlan(w, n.Right, depth+1)
	case *Unary:
		fmt.Fprintln(w, "unary -")
		p.writePlan(w, n.X, depth+1)
	case *IfExpr:
		fmt.Fprintln(w, "if")
		p.writePlan(w, n.Cond, depth+1)
		p.writePlan(w, n.Then, depth+1)
		p.writePlan(w, n.Else, depth+1)
	case *Quantified:
		kw := "some"
		if n.Every {
			kw = "every"
		}
		fmt.Fprintf(w, "%s $%s\n", kw, n.Var)
		p.writePlan(w, n.Seq, depth+1)
		p.writePlan(w, n.Pred, depth+1)
	case *FLWOR:
		fmt.Fprintln(w, "flwor")
		for _, cl := range n.Clauses {
			indent(w, depth+1)
			kw := "for"
			if cl.Let {
				kw = "let"
			}
			var flags []string
			if cl.Lazy {
				flags = append(flags, "lazy")
			}
			fmt.Fprintf(w, "%s $%s%s\n", kw, cl.Var, flagText(flags))
			p.writePlan(w, cl.Seq, depth+2)
		}
		if n.Where != nil {
			indent(w, depth+1)
			fmt.Fprintln(w, "where:")
			p.writePlan(w, n.Where, depth+2)
		}
		for _, o := range n.OrderBy {
			indent(w, depth+1)
			fmt.Fprintln(w, "order-by:")
			p.writePlan(w, o.Key, depth+2)
		}
		indent(w, depth+1)
		fmt.Fprintln(w, "return:")
		p.writePlan(w, n.Return, depth+2)
	case *FuncCall:
		fmt.Fprintf(w, "call %s args=%d\n", n.Name, len(n.Args))
		for _, a := range n.Args {
			p.writePlan(w, a, depth+1)
		}
	case *ElementCtor:
		var flags []string
		if n.Virtual {
			flags = append(flags, "virtual")
		}
		fmt.Fprintf(w, "element <%s>%s\n", n.Name, flagText(flags))
		for _, c := range n.Content {
			p.writePlan(w, c, depth+1)
		}
	case *TextCtor:
		fmt.Fprintln(w, "text-ctor")
		p.writePlan(w, n.Content, depth+1)
	case *CommentCtor:
		fmt.Fprintln(w, "comment-ctor")
		p.writePlan(w, n.Content, depth+1)
	default:
		fmt.Fprintf(w, "%T\n", x)
	}
}

func flagText(flags []string) string {
	if len(flags) == 0 {
		return ""
	}
	return " [" + strings.Join(flags, ",") + "]"
}
