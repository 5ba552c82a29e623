package query

import (
	"fmt"
)

// Analyze performs the static analysis phase (§5): variable scoping and
// function resolution. Static errors are detected here, before any data is
// touched.
func Analyze(st *Statement) error {
	scope := make(map[string]bool)
	for _, v := range st.Prolog.Vars {
		if err := analyzeExpr(v.Seq, scope, st.Prolog); err != nil {
			return err
		}
		scope[v.Var] = true
	}
	// Function bodies see the prolog variables plus their parameters.
	for _, fd := range st.Prolog.Funcs {
		fscope := copyScope(scope)
		for _, p := range fd.Params {
			fscope[p] = true
		}
		if err := analyzeExpr(fd.Body, fscope, st.Prolog); err != nil {
			return fmt.Errorf("in function %s: %w", fd.Name, err)
		}
	}
	switch {
	case st.Query != nil:
		return analyzeExpr(st.Query, scope, st.Prolog)
	case st.Update != nil:
		u := st.Update
		if err := analyzeExpr(u.Target, scope, st.Prolog); err != nil {
			return err
		}
		if u.Source != nil {
			s2 := scope
			if u.Var != "" {
				s2 = copyScope(scope)
				s2[u.Var] = true
			}
			return analyzeExpr(u.Source, s2, st.Prolog)
		}
		return nil
	case st.DDL != nil:
		if st.DDL.OnPath != nil {
			if err := analyzeExpr(st.DDL.OnPath, scope, st.Prolog); err != nil {
				return err
			}
		}
		if st.DDL.ByPath != nil {
			return analyzeRelativePath(st.DDL.ByPath)
		}
		return nil
	}
	return nil
}

func copyScope(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// builtinFunctions lists the supported function library (§5.2: "a library of
// physical operations which covers XQuery expressions").
var builtinFunctions = map[string]bool{
	"position": true, "last": true, "true": true, "false": true,
	"count": true, "empty": true, "exists": true, "not": true, "boolean": true,
	"string": true, "number": true, "data": true,
	"sum": true, "avg": true, "min": true, "max": true,
	"distinct-values": true, "name": true, "local-name": true,
	"concat": true, "string-join": true, "contains": true,
	"starts-with": true, "ends-with": true, "substring": true,
	"string-length": true, "normalize-space": true,
	"upper-case": true, "lower-case": true,
	"round": true, "floor": true, "ceiling": true, "abs": true,
	"root": true, "text": true, "node-kind": true, "doc": true,
	"index-scan": true,
}

func analyzeExpr(x Expr, scope map[string]bool, pr *Prolog) error {
	switch n := x.(type) {
	case nil:
		return nil
	case *Literal, *ContextItem, *Root, *DocCall:
		return nil
	case *VarRef:
		if !scope[n.Name] {
			return fmt.Errorf("query: static error: undefined variable $%s", n.Name)
		}
		return nil
	case *Step:
		if n.Input != nil {
			if err := analyzeExpr(n.Input, scope, pr); err != nil {
				return err
			}
		}
		for _, p := range n.Preds {
			if err := analyzeExpr(p, scope, pr); err != nil {
				return err
			}
		}
		n.wholeContext = len(n.Preds) > streamPreds || usesLast(n.Preds)
		return nil
	case *Filter:
		if err := analyzeExpr(n.Input, scope, pr); err != nil {
			return err
		}
		for _, p := range n.Preds {
			if err := analyzeExpr(p, scope, pr); err != nil {
				return err
			}
		}
		return nil
	case *Sequence:
		for _, it := range n.Items {
			if err := analyzeExpr(it, scope, pr); err != nil {
				return err
			}
		}
		return nil
	case *Binary:
		if err := analyzeExpr(n.Left, scope, pr); err != nil {
			return err
		}
		return analyzeExpr(n.Right, scope, pr)
	case *Unary:
		return analyzeExpr(n.X, scope, pr)
	case *IfExpr:
		if err := analyzeExpr(n.Cond, scope, pr); err != nil {
			return err
		}
		if err := analyzeExpr(n.Then, scope, pr); err != nil {
			return err
		}
		return analyzeExpr(n.Else, scope, pr)
	case *Quantified:
		if err := analyzeExpr(n.Seq, scope, pr); err != nil {
			return err
		}
		s2 := copyScope(scope)
		s2[n.Var] = true
		return analyzeExpr(n.Pred, s2, pr)
	case *FLWOR:
		s2 := copyScope(scope)
		for _, cl := range n.Clauses {
			if err := analyzeExpr(cl.Seq, s2, pr); err != nil {
				return err
			}
			s2[cl.Var] = true
			if cl.PosVar != "" {
				s2[cl.PosVar] = true
			}
		}
		if n.Where != nil {
			if err := analyzeExpr(n.Where, s2, pr); err != nil {
				return err
			}
		}
		for _, o := range n.OrderBy {
			if err := analyzeExpr(o.Key, s2, pr); err != nil {
				return err
			}
		}
		return analyzeExpr(n.Return, s2, pr)
	case *FuncCall:
		if _, ok := pr.Funcs[n.Name]; !ok {
			short := n.Name
			if len(short) > 3 && short[:3] == "fn:" {
				short = short[3:]
			}
			if !builtinFunctions[short] {
				return fmt.Errorf("query: static error: unknown function %s()", n.Name)
			}
		}
		for _, a := range n.Args {
			if err := analyzeExpr(a, scope, pr); err != nil {
				return err
			}
		}
		return nil
	case *ElementCtor:
		for _, a := range n.Attrs {
			for _, v := range a.Value {
				if err := analyzeExpr(v, scope, pr); err != nil {
					return err
				}
			}
		}
		for _, c := range n.Content {
			if err := analyzeExpr(c, scope, pr); err != nil {
				return err
			}
		}
		return nil
	case *TextCtor:
		return analyzeExpr(n.Content, scope, pr)
	case *CommentCtor:
		return analyzeExpr(n.Content, scope, pr)
	default:
		return fmt.Errorf("query: static error: unknown expression %T", x)
	}
}

// analyzeRelativePath validates an index BY path: relative, descending,
// predicate-free.
func analyzeRelativePath(x Expr) error {
	for {
		st, ok := x.(*Step)
		if !ok {
			return fmt.Errorf("query: static error: index key path must be a relative location path")
		}
		if len(st.Preds) > 0 {
			return fmt.Errorf("query: static error: index key path cannot have predicates")
		}
		if st.Input == nil {
			return nil
		}
		x = st.Input
	}
}

// freeVars collects the free variables of an expression.
func freeVars(x Expr, bound map[string]bool, out map[string]bool) {
	switch n := x.(type) {
	case nil:
	case *VarRef:
		if !bound[n.Name] {
			out[n.Name] = true
		}
	case *Step:
		freeVars(n.Input, bound, out)
		for _, p := range n.Preds {
			freeVars(p, bound, out)
		}
	case *Filter:
		freeVars(n.Input, bound, out)
		for _, p := range n.Preds {
			freeVars(p, bound, out)
		}
	case *Sequence:
		for _, it := range n.Items {
			freeVars(it, bound, out)
		}
	case *Binary:
		freeVars(n.Left, bound, out)
		freeVars(n.Right, bound, out)
	case *Unary:
		freeVars(n.X, bound, out)
	case *IfExpr:
		freeVars(n.Cond, bound, out)
		freeVars(n.Then, bound, out)
		freeVars(n.Else, bound, out)
	case *Quantified:
		freeVars(n.Seq, bound, out)
		b2 := copyScope(bound)
		b2[n.Var] = true
		freeVars(n.Pred, b2, out)
	case *FLWOR:
		b2 := copyScope(bound)
		for _, cl := range n.Clauses {
			freeVars(cl.Seq, b2, out)
			b2[cl.Var] = true
			if cl.PosVar != "" {
				b2[cl.PosVar] = true
			}
		}
		freeVars(n.Where, b2, out)
		for _, o := range n.OrderBy {
			freeVars(o.Key, b2, out)
		}
		freeVars(n.Return, b2, out)
	case *FuncCall:
		for _, a := range n.Args {
			freeVars(a, bound, out)
		}
	case *ElementCtor:
		for _, a := range n.Attrs {
			for _, v := range a.Value {
				freeVars(v, bound, out)
			}
		}
		for _, c := range n.Content {
			freeVars(c, bound, out)
		}
	case *TextCtor:
		freeVars(n.Content, bound, out)
	case *CommentCtor:
		freeVars(n.Content, bound, out)
	}
}
