package query

import (
	"fmt"
	"math"
	"strings"
)

// evalFuncCall dispatches user-declared functions and the built-in library.
func evalFuncCall(fc *FuncCall, e *env, f *focus) ([]Item, error) {
	if fd, ok := e.ctx.funcs[fc.Name]; ok {
		if len(fc.Args) != len(fd.Params) {
			return nil, fmt.Errorf("query: %s expects %d arguments, got %d", fc.Name, len(fd.Params), len(fc.Args))
		}
		// Function bodies evaluate in the global (prolog) scope extended
		// with the parameters — caller locals are not visible.
		fe := e.ctx.globalEnv
		if fe == nil {
			fe = &env{ctx: e.ctx, r: e.r}
		}
		for i, p := range fd.Params {
			v, err := eval(fc.Args[i], e, f)
			if err != nil {
				return nil, err
			}
			fe = fe.bind(p, v)
		}
		return eval(fd.Body, fe, nil)
	}
	name := strings.TrimPrefix(fc.Name, "fn:")
	// Only root() and index-scan() return nodes: whatever else a built-in
	// reads goes back to the slab once its value is computed.
	m := e.ctx.nodes.mark()
	out, err := evalBuiltin(name, fc, e, f)
	if name != "root" && name != "index-scan" {
		e.ctx.nodes.release(m)
	}
	return out, err
}

func evalBuiltin(name string, fc *FuncCall, e *env, f *focus) ([]Item, error) {
	// Focus-dependent zero-argument functions.
	switch name {
	case "position":
		if f == nil {
			return nil, fmt.Errorf("query: position() outside predicate")
		}
		return []Item{num(float64(f.pos))}, nil
	case "last":
		if f == nil {
			return nil, fmt.Errorf("query: last() outside predicate")
		}
		return []Item{num(float64(f.size))}, nil
	case "true":
		return boolSeq(true), nil
	case "false":
		return boolSeq(false), nil
	}
	// Functions of a sequence's size or effective boolean value run a path
	// argument without collecting its nodes.
	if len(fc.Args) == 1 {
		switch name {
		case "count":
			if n, ok, err := stepCount(fc.Args[0], e, f, 0); ok {
				return []Item{num(float64(n))}, err
			}
		case "exists", "empty":
			if n, ok, err := stepCount(fc.Args[0], e, f, 1); ok {
				return boolSeq((n > 0) == (name == "exists")), err
			}
		case "not", "boolean":
			b, err := evalEBV(fc.Args[0], e, f)
			return boolSeq(b == (name == "boolean")), err
		}
	}

	// Evaluate arguments. Functions with an optional first argument default
	// to the context item.
	args := make([][]Item, len(fc.Args))
	for i, a := range fc.Args {
		v, err := eval(a, e, f)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	argOrContext := func() ([]Item, error) {
		if len(args) > 0 {
			return args[0], nil
		}
		if f == nil || f.item == nil {
			return nil, fmt.Errorf("query: %s() requires an argument or context item", name)
		}
		return []Item{f.item}, nil
	}

	switch name {
	case "count":
		if len(args) != 1 {
			return nil, fmt.Errorf("query: count() takes one argument")
		}
		return []Item{num(float64(len(args[0])))}, nil

	case "exists", "empty":
		return boolSeq((len(args[0]) > 0) == (name == "exists")), nil

	case "string", "text":
		// text() is a convenience alias used by some Sedna queries; it keeps
		// an empty sequence empty.
		v, err := argOrContext()
		if err != nil || len(v) == 0 && name == "text" {
			return nil, err
		}
		if len(v) == 0 {
			return []Item{str("")}, nil
		}
		s, err := itemStringValue(e, v[0])
		if err != nil {
			return nil, err
		}
		return []Item{str(s)}, nil

	case "number":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return []Item{num(math.NaN())}, nil
		}
		a, err := atomize(e, v[0])
		if err != nil {
			return nil, err
		}
		return []Item{num(a.NumberValue())}, nil

	case "data":
		var out []Item
		for _, it := range args[0] {
			a, err := atomize(e, it)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil

	case "sum", "avg", "min", "max":
		return evalAggregate(name, args[0], e)

	case "distinct-values":
		seen := make(map[string]bool)
		var out []Item
		for _, it := range args[0] {
			a, err := atomize(e, it)
			if err != nil {
				return nil, err
			}
			k := a.StringValue()
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
		return out, nil

	case "name", "local-name":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return []Item{str("")}, nil
		}
		var qname string
		switch x := v[0].(type) {
		case *NodeItem:
			sn := x.Doc.Schema.ByID(x.D.SchemaID)
			if sn != nil && sn.Kind.HasName() {
				qname = sn.Name
			}
		case *TempItem:
			if x.N.Kind.HasName() {
				qname = x.N.Name
			}
		default:
			return nil, fmt.Errorf("query: %s() over an atomic value", name)
		}
		if name == "local-name" {
			if i := strings.LastIndexByte(qname, ':'); i >= 0 {
				qname = qname[i+1:]
			}
		}
		return []Item{str(qname)}, nil

	case "concat":
		var sb strings.Builder
		for _, a := range args {
			s, err := atomizedString(e, a, "")
			if err != nil {
				return nil, err
			}
			sb.WriteString(s)
		}
		return []Item{str(sb.String())}, nil

	case "string-join":
		sep := ""
		if len(args) > 1 {
			s, err := atomizedString(e, args[1], "")
			if err != nil {
				return nil, err
			}
			sep = s
		}
		var parts []string
		for _, it := range args[0] {
			a, err := atomize(e, it)
			if err != nil {
				return nil, err
			}
			parts = append(parts, a.StringValue())
		}
		return []Item{str(strings.Join(parts, sep))}, nil

	case "contains", "starts-with", "ends-with":
		s1, err := atomizedString(e, args[0], "")
		if err != nil {
			return nil, err
		}
		s2, err := atomizedString(e, args[1], "")
		if err != nil {
			return nil, err
		}
		var b bool
		switch name {
		case "contains":
			b = strings.Contains(s1, s2)
		case "starts-with":
			b = strings.HasPrefix(s1, s2)
		default:
			b = strings.HasSuffix(s1, s2)
		}
		return boolSeq(b), nil

	case "substring":
		s, err := atomizedString(e, args[0], "")
		if err != nil {
			return nil, err
		}
		start, err := singletonNumber(e, args[1])
		if err != nil || start == nil {
			return nil, err
		}
		runes := []rune(s)
		from := int(math.Round(start.NumberValue())) - 1
		to := len(runes)
		if len(args) > 2 {
			length, err := singletonNumber(e, args[2])
			if err != nil || length == nil {
				return nil, err
			}
			to = from + int(math.Round(length.NumberValue()))
		}
		if from < 0 {
			from = 0
		}
		if to > len(runes) {
			to = len(runes)
		}
		if from >= to {
			return []Item{str("")}, nil
		}
		return []Item{str(string(runes[from:to]))}, nil

	case "string-length":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		s, err := atomizedString(e, v, "")
		if err != nil {
			return nil, err
		}
		return []Item{num(float64(len([]rune(s))))}, nil

	case "normalize-space":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		s, err := atomizedString(e, v, "")
		if err != nil {
			return nil, err
		}
		return []Item{str(strings.Join(strings.Fields(s), " "))}, nil

	case "upper-case", "lower-case":
		s, err := atomizedString(e, args[0], "")
		if err != nil {
			return nil, err
		}
		if name == "upper-case" {
			return []Item{str(strings.ToUpper(s))}, nil
		}
		return []Item{str(strings.ToLower(s))}, nil

	case "round", "floor", "ceiling", "abs":
		a, err := singletonNumber(e, args[0])
		if err != nil {
			return nil, err
		}
		if a == nil {
			return nil, nil
		}
		v := a.NumberValue()
		switch name {
		case "round":
			v = math.Round(v)
		case "floor":
			v = math.Floor(v)
		case "ceiling":
			v = math.Ceil(v)
		case "abs":
			v = math.Abs(v)
		}
		return []Item{num(v)}, nil

	case "root":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return nil, nil
		}
		switch x := v[0].(type) {
		case *NodeItem:
			return eval(&Root{}, e, &focus{item: x, pos: 1, size: 1})
		case *TempItem:
			t := x.N
			for t.Parent != nil {
				t = t.Parent
			}
			return []Item{&TempItem{N: t}}, nil
		}
		return nil, fmt.Errorf("query: root() over an atomic value")

	case "index-scan":
		if len(args) != 2 {
			return nil, fmt.Errorf("query: index-scan(name, value) takes two arguments")
		}
		nameVal, err := atomizedString(e, args[0], "")
		if err != nil {
			return nil, err
		}
		if len(args[1]) == 0 {
			return nil, nil
		}
		v, err := atomize(e, args[1][0])
		if err != nil {
			return nil, err
		}
		return evalIndexScan(e, nameVal, v)

	case "node-kind":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return nil, nil
		}
		switch x := v[0].(type) {
		case *NodeItem:
			return []Item{str(x.Doc.Schema.ByID(x.D.SchemaID).Kind.String())}, nil
		case *TempItem:
			return []Item{str(x.N.Kind.String())}, nil
		}
		return nil, fmt.Errorf("query: node-kind() over an atomic value")

	default:
		return nil, fmt.Errorf("query: unknown function %s()", fc.Name)
	}
}

func evalAggregate(name string, items []Item, e *env) ([]Item, error) {
	if len(items) == 0 {
		if name == "sum" {
			return []Item{num(0)}, nil
		}
		return nil, nil
	}
	// Numeric aggregation unless min/max over values none of which is a
	// number.
	vals := make([]Atomic, len(items))
	allStrings := name == "min" || name == "max"
	for i, it := range items {
		if err := atomizeTo(e, it, &vals[i]); err != nil {
			return nil, err
		}
		if allStrings && vals[i].Kind != AtomNumber {
			_, err := fmt.Sscanf(vals[i].StringValue(), "%f", new(float64))
			allStrings = err != nil
		} else {
			allStrings = false
		}
	}
	if allStrings {
		best := vals[0].StringValue()
		for i := range vals {
			if s := vals[i].StringValue(); name == "min" && s < best || name == "max" && s > best {
				best = s
			}
		}
		return []Item{str(best)}, nil
	}
	sum, best := 0.0, vals[0].NumberValue()
	for i := range vals {
		v := vals[i].NumberValue()
		sum += v
		if name == "min" && v < best || name == "max" && v > best {
			best = v
		}
	}
	switch name {
	case "sum":
		return []Item{num(sum)}, nil
	case "avg":
		return []Item{num(sum / float64(len(items)))}, nil
	default:
		return []Item{num(best)}, nil
	}
}
