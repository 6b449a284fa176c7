package cparser

import (
	"fmt"

	"sherlock/internal/dfg"
)

// Compiled is the front-end result: the DFG plus the kernel's signature.
type Compiled struct {
	Graph      *dfg.Graph
	KernelName string
	// InputNames and OutputNames follow parameter order; array parameters
	// expand to name[i] entries.
	InputNames  []string
	OutputNames []string
}

// Compile parses a kernel and lowers it (loops fully unrolled) to a DFG.
func Compile(src string) (*Compiled, error) {
	k, err := parseKernel(src)
	if err != nil {
		return nil, err
	}
	return lower(k)
}

// value environment entry: a scalar val or an array of vals.
type binding struct {
	isArray bool
	scalar  dfg.Val
	arr     []dfg.Val
	arrSet  []bool // per-slot assignment tracking for output arrays
	defined bool   // scalars only: assigned at least once
}

type lowerer struct {
	b       *dfg.Builder
	k       *kernel
	vals    map[string]*binding // word variables and input params
	outputs map[string]*binding // output params (assign-only)
	loops   map[string]int      // active loop variables
	scopes  []map[string]bool   // declaration sets of open loop bodies
	res     *Compiled
}

func lower(k *kernel) (*Compiled, error) {
	lo := &lowerer{
		b:       dfg.NewBuilder(),
		k:       k,
		vals:    make(map[string]*binding),
		outputs: make(map[string]*binding),
		loops:   make(map[string]int),
		res:     &Compiled{KernelName: k.name},
	}
	seen := make(map[string]bool)
	for _, pr := range k.params {
		if seen[pr.name] {
			return nil, fmt.Errorf("cparser: duplicate parameter %q", pr.name)
		}
		seen[pr.name] = true
		switch {
		case pr.isOutput && pr.size == 0:
			lo.outputs[pr.name] = &binding{}
			lo.res.OutputNames = append(lo.res.OutputNames, pr.name)
		case pr.isOutput:
			lo.outputs[pr.name] = &binding{isArray: true, arr: make([]dfg.Val, pr.size), arrSet: make([]bool, pr.size)}
			for i := 0; i < pr.size; i++ {
				lo.res.OutputNames = append(lo.res.OutputNames, arrName(pr.name, i))
			}
		case pr.size == 0:
			lo.vals[pr.name] = &binding{scalar: lo.b.Input(pr.name), defined: true}
			lo.res.InputNames = append(lo.res.InputNames, pr.name)
		default:
			arr := make([]dfg.Val, pr.size)
			for i := range arr {
				arr[i] = lo.b.Input(arrName(pr.name, i))
				lo.res.InputNames = append(lo.res.InputNames, arrName(pr.name, i))
			}
			lo.vals[pr.name] = &binding{isArray: true, arr: arr, defined: true}
		}
	}
	if len(lo.outputs) == 0 {
		return nil, fmt.Errorf("cparser: kernel %q has no output parameters", k.name)
	}
	if err := lo.stmts(k.body); err != nil {
		return nil, err
	}
	// Mark outputs; every output slot must have been stored.
	for _, pr := range k.params {
		if !pr.isOutput {
			continue
		}
		ob := lo.outputs[pr.name]
		if !ob.isArray {
			if !ob.defined {
				return nil, fmt.Errorf("cparser: output %q never assigned", pr.name)
			}
			if err := lo.markOutput(pr.name, ob.scalar); err != nil {
				return nil, err
			}
			continue
		}
		for i, v := range ob.arr {
			if !ob.arrSet[i] {
				return nil, fmt.Errorf("cparser: output %q[%d] never assigned", pr.name, i)
			}
			if err := lo.markOutput(arrName(pr.name, i), v); err != nil {
				return nil, err
			}
		}
	}
	lo.res.Graph = lo.b.Graph()
	return lo.res, nil
}

func (lo *lowerer) markOutput(name string, v dfg.Val) error {
	if c, _ := v.IsConst(); c {
		return fmt.Errorf("cparser: output %q is a compile-time constant; nothing to compute", name)
	}
	lo.b.Output(name, v)
	return nil
}

func arrName(base string, i int) string { return fmt.Sprintf("%s[%d]", base, i) }

func (lo *lowerer) stmts(list []stmt) error {
	for _, s := range list {
		if err := lo.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(s stmt) error {
	switch s := s.(type) {
	case *declStmt:
		if _, exists := lo.vals[s.name]; exists {
			return fmt.Errorf("cparser: redeclaration of %q", s.name)
		}
		if _, exists := lo.outputs[s.name]; exists {
			return fmt.Errorf("cparser: %q shadows an output parameter", s.name)
		}
		bd := &binding{}
		if s.init != nil {
			v, err := lo.expr(s.init)
			if err != nil {
				return err
			}
			bd.scalar, bd.defined = v, true
		}
		lo.vals[s.name] = bd
		if len(lo.scopes) > 0 {
			lo.scopes[len(lo.scopes)-1][s.name] = true
		}
		return nil
	case *assignStmt:
		return lo.assign(s)
	case *forStmt:
		if _, active := lo.loops[s.loopVar]; active {
			return fmt.Errorf("cparser: nested reuse of loop variable %q", s.loopVar)
		}
		hi := s.to
		if s.inclusive {
			hi++
		}
		if hi-s.from > 1<<16 {
			return fmt.Errorf("cparser: loop over %q unrolls to %d iterations", s.loopVar, hi-s.from)
		}
		for i := s.from; i < hi; i++ {
			lo.loops[s.loopVar] = i
			// Each unrolled iteration opens a fresh block scope: locals
			// declared inside the body vanish at the iteration's end.
			declared := make(map[string]bool)
			lo.scopes = append(lo.scopes, declared)
			if err := lo.stmts(s.body); err != nil {
				return err
			}
			lo.scopes = lo.scopes[:len(lo.scopes)-1]
			for name := range declared { //sherlock:allow rangemap (deletes every key; order-insensitive)
				delete(lo.vals, name)
			}
		}
		delete(lo.loops, s.loopVar)
		return nil
	}
	return fmt.Errorf("cparser: unknown statement %T", s)
}

func (lo *lowerer) assign(a *assignStmt) error {
	rhs, err := lo.expr(a.rhs)
	if err != nil {
		return err
	}
	if a.deref || func() bool { _, ok := lo.outputs[a.target.name]; return ok }() {
		ob, ok := lo.outputs[a.target.name]
		if !ok {
			return fmt.Errorf("cparser: store through %q, which is not an output", a.target.name)
		}
		if a.compOp != 0 {
			return fmt.Errorf("cparser: compound assignment to output %q unsupported", a.target.name)
		}
		if ob.isArray {
			if a.target.index == nil {
				return fmt.Errorf("cparser: output array %q needs an index", a.target.name)
			}
			i, err := lo.resolveIndex(a.target.index, len(ob.arr), a.target.name)
			if err != nil {
				return err
			}
			ob.arr[i] = rhs
			ob.arrSet[i] = true
			return nil
		}
		if a.target.index != nil {
			return fmt.Errorf("cparser: output %q is scalar", a.target.name)
		}
		ob.scalar, ob.defined = rhs, true
		return nil
	}

	bd, ok := lo.vals[a.target.name]
	if !ok {
		return fmt.Errorf("cparser: assignment to undeclared %q", a.target.name)
	}
	apply := func(old dfg.Val) dfg.Val {
		switch a.compOp {
		case '&':
			return lo.b.And(old, rhs)
		case '|':
			return lo.b.Or(old, rhs)
		case '^':
			return lo.b.Xor(old, rhs)
		}
		return rhs
	}
	if bd.isArray {
		if a.target.index == nil {
			return fmt.Errorf("cparser: array %q needs an index", a.target.name)
		}
		i, err := lo.resolveIndex(a.target.index, len(bd.arr), a.target.name)
		if err != nil {
			return err
		}
		bd.arr[i] = apply(bd.arr[i])
		return nil
	}
	if a.target.index != nil {
		return fmt.Errorf("cparser: %q is not an array", a.target.name)
	}
	if a.compOp != 0 && !bd.defined {
		return fmt.Errorf("cparser: compound assignment to unassigned %q", a.target.name)
	}
	bd.scalar = apply(bd.scalar)
	bd.defined = true
	return nil
}

func (lo *lowerer) resolveIndex(idx *indexExpr, size int, what string) (int, error) {
	i := idx.offset
	for _, term := range idx.terms {
		v, ok := lo.loops[term.loopVar]
		if !ok {
			return 0, fmt.Errorf("cparser: index variable %q is not an active loop variable", term.loopVar)
		}
		i += term.coeff * v
	}
	if i < 0 || i >= size {
		return 0, fmt.Errorf("cparser: index %d out of range for %q (size %d)", i, what, size)
	}
	return i, nil
}

func (lo *lowerer) expr(e expr) (dfg.Val, error) {
	switch e := e.(type) {
	case *litExpr:
		return lo.b.Const(e.val), nil
	case *unaryExpr:
		v, err := lo.expr(e.x)
		if err != nil {
			return dfg.Val{}, err
		}
		return lo.b.Not(v), nil
	case *binExpr:
		l, err := lo.expr(e.l)
		if err != nil {
			return dfg.Val{}, err
		}
		r, err := lo.expr(e.r)
		if err != nil {
			return dfg.Val{}, err
		}
		switch e.op {
		case '&':
			return lo.b.And(l, r), nil
		case '|':
			return lo.b.Or(l, r), nil
		case '^':
			return lo.b.Xor(l, r), nil
		}
		return dfg.Val{}, fmt.Errorf("cparser: unknown operator %q", e.op)
	case *varRef:
		if _, isOut := lo.outputs[e.name]; isOut {
			return dfg.Val{}, fmt.Errorf("cparser: output %q cannot be read", e.name)
		}
		bd, ok := lo.vals[e.name]
		if !ok {
			return dfg.Val{}, fmt.Errorf("cparser: use of undeclared %q", e.name)
		}
		if bd.isArray {
			if e.index == nil {
				return dfg.Val{}, fmt.Errorf("cparser: array %q needs an index", e.name)
			}
			i, err := lo.resolveIndex(e.index, len(bd.arr), e.name)
			if err != nil {
				return dfg.Val{}, err
			}
			return bd.arr[i], nil
		}
		if e.index != nil {
			return dfg.Val{}, fmt.Errorf("cparser: %q is not an array", e.name)
		}
		if !bd.defined {
			return dfg.Val{}, fmt.Errorf("cparser: use of %q before assignment", e.name)
		}
		return bd.scalar, nil
	}
	return dfg.Val{}, fmt.Errorf("cparser: unknown expression %T", e)
}
