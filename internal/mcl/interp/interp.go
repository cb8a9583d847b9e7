// Package interp executes MCPL kernels with a tree-walking interpreter.
//
// It is the test oracle of the closure engine (internal/mcl/closure), which
// executes every kernel the program runs: the differential tests and the
// fuzz targets require both engines to agree. Only tests import it; a lint
// step in the Makefile keeps it that way. It evaluates the AST directly,
// with every variable in a shared cell, so its semantics are easy to read
// off the code.
//
// foreach statements are semantically parallel. Bodies without barriers are
// run sequentially; a foreach whose body contains a barrier (directly, not
// inside a nested foreach) runs its iterations on goroutines synchronized by
// a reusable barrier, giving OpenCL work-group semantics to local-memory
// tiling kernels.
package interp

import (
	"fmt"
	"math"
	"sync"

	"cashmere/internal/mcl/mcpl"
)

// cell is a mutable variable slot shared between scopes.
type cell struct{ v any }

type env struct {
	parent *env
	vars   map[string]*cell
}

func newEnv(parent *env) *env { return &env{parent: parent, vars: map[string]*cell{}} }

func (e *env) lookup(name string) *cell {
	for x := e; x != nil; x = x.parent {
		if c, ok := x.vars[name]; ok {
			return c
		}
	}
	return nil
}

func (e *env) define(name string, v any) { e.vars[name] = &cell{v: v} }

// Run executes the named kernel with the given arguments. Scalar arguments
// are int64 or float64 (bools as bool); arrays are *mcpl.Array, passed by
// reference. Array dimensions are checked against the dimension expressions
// in the kernel signature.
func Run(prog *mcpl.Program, kernel string, args ...any) error {
	f := prog.Kernel(kernel)
	if f == nil {
		return fmt.Errorf("interp: kernel %q not found", kernel)
	}
	m := &machine{prog: prog}
	return m.callFunc(f, args)
}

// RunFunc executes a helper function and returns its result (for tests).
func RunFunc(prog *mcpl.Program, name string, args ...any) (any, error) {
	f := prog.Func(name)
	if f == nil {
		return nil, fmt.Errorf("interp: function %q not found", name)
	}
	m := &machine{prog: prog}
	return m.call(f, args)
}

type machine struct {
	prog *mcpl.Program
}

func (m *machine) callFunc(f *mcpl.Func, args []any) error {
	_, err := m.call(f, args)
	return err
}

func (m *machine) call(f *mcpl.Func, args []any) (any, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("interp: %s takes %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	e := newEnv(nil)
	for i, prm := range f.Params {
		v, err := mcpl.CoerceArg(prm, args[i])
		if err != nil {
			return nil, fmt.Errorf("interp: %w", err)
		}
		e.define(prm.Name, v)
	}
	// Validate array dims now that scalars are bound.
	for i, prm := range f.Params {
		if !prm.Type.IsArray() {
			continue
		}
		arr := args[i].(*mcpl.Array)
		if len(arr.Dims) != len(prm.Type.Dims) {
			return nil, fmt.Errorf("interp: argument %s has rank %d, want %d", prm.Name, len(arr.Dims), len(prm.Type.Dims))
		}
		for d, de := range prm.Type.Dims {
			want, err := m.evalInt(de, e)
			if err != nil {
				return nil, err
			}
			if int64(arr.Dims[d]) != want {
				return nil, fmt.Errorf("interp: argument %s dimension %d is %d, want %d (%s)",
					prm.Name, d, arr.Dims[d], want, mcpl.ExprString(de))
			}
		}
	}
	ret, _, err := m.execBlockShared(f.Body, e)
	if err != nil {
		return nil, err
	}
	if ret != nil {
		return ret.v, nil
	}
	return nil, nil
}

// retval marks a return in flight.
type retval struct{ v any }

// execBlockShared executes the statements of a block in the given
// environment without opening a new scope (used for function bodies, which
// share the parameter scope).
func (m *machine) execBlockShared(b *mcpl.Block, e *env) (*retval, bool, error) {
	for _, s := range b.Stmts {
		ret, brk, err := m.exec(s, e)
		if err != nil || ret != nil || brk {
			return ret, brk, err
		}
	}
	return nil, false, nil
}

func (m *machine) execBlock(b *mcpl.Block, parent *env) (*retval, bool, error) {
	return m.execBlockShared(b, newEnv(parent))
}

// exec runs one statement. The bool result is reserved for future
// break/continue support and is always false today.
func (m *machine) exec(s mcpl.Stmt, e *env) (*retval, bool, error) {
	switch st := s.(type) {
	case *mcpl.Block:
		return m.execBlock(st, e)
	case *mcpl.VarDecl:
		return nil, false, m.execVarDecl(st, e)
	case *mcpl.Assign:
		return nil, false, m.execAssign(st, e)
	case *mcpl.IncDec:
		return nil, false, m.execIncDec(st, e)
	case *mcpl.If:
		c, err := m.eval(st.Cond, e)
		if err != nil {
			return nil, false, err
		}
		if c.(bool) {
			return m.execBlock(st.Then, e)
		}
		if st.Else != nil {
			return m.exec(st.Else, e)
		}
		return nil, false, nil
	case *mcpl.For:
		inner := newEnv(e)
		if st.Init != nil {
			if _, _, err := m.exec(st.Init, inner); err != nil {
				return nil, false, err
			}
		}
		for {
			if st.Cond != nil {
				c, err := m.eval(st.Cond, inner)
				if err != nil {
					return nil, false, err
				}
				if !c.(bool) {
					break
				}
			}
			ret, brk, err := m.execBlock(st.Body, inner)
			if err != nil || ret != nil || brk {
				return ret, false, err
			}
			if st.Post != nil {
				if _, _, err := m.exec(st.Post, inner); err != nil {
					return nil, false, err
				}
			}
		}
		return nil, false, nil
	case *mcpl.While:
		for {
			c, err := m.eval(st.Cond, e)
			if err != nil {
				return nil, false, err
			}
			if !c.(bool) {
				break
			}
			ret, brk, err := m.execBlock(st.Body, e)
			if err != nil || ret != nil || brk {
				return ret, false, err
			}
		}
		return nil, false, nil
	case *mcpl.Foreach:
		return nil, false, m.execForeach(st, e)
	case *mcpl.Return:
		if st.Value == nil {
			return &retval{}, false, nil
		}
		v, err := m.eval(st.Value, e)
		if err != nil {
			return nil, false, err
		}
		return &retval{v: v}, false, nil
	case *mcpl.ExprStmt:
		_, err := m.eval(st.X, e)
		return nil, false, err
	case *mcpl.Barrier:
		// Reaching exec for a barrier means the enclosing foreach ran
		// sequentially; with sequential semantics a barrier is a no-op only
		// if no cross-iteration communication happens, and foreach execution
		// chooses parallel mode whenever a barrier is present. This path is
		// hit when a barrier sits inside a foreach body via a helper-like
		// nesting the scanner covers, so it should not happen.
		return nil, false, fmt.Errorf("%v: barrier executed outside parallel foreach", st.Pos)
	default:
		return nil, false, fmt.Errorf("%v: unknown statement %T", s.Position(), s)
	}
}

func (m *machine) execForeach(st *mcpl.Foreach, e *env) error {
	// A chain of directly nested single-statement foreach loops forms one
	// combined iteration domain (see mcpl.Foreach.Chain).
	chain, body, parallel := st.Chain()
	var vars []string
	var bounds []int64
	for _, fe := range chain {
		b, err := m.evalInt(fe.Bound, e)
		if err != nil {
			return err
		}
		if b < 0 {
			return fmt.Errorf("%v: negative foreach bound %d", fe.Pos, b)
		}
		vars = append(vars, fe.Var)
		bounds = append(bounds, b)
	}
	total := int64(1)
	for _, b := range bounds {
		total *= b
	}

	indices := func(flat int64) []int64 {
		idx := make([]int64, len(bounds))
		for d := len(bounds) - 1; d >= 0; d-- {
			if bounds[d] > 0 {
				idx[d] = flat % bounds[d]
				flat /= bounds[d]
			}
		}
		return idx
	}

	if !parallel {
		for i := int64(0); i < total; i++ {
			inner := newEnv(e)
			for d, v := range indices(i) {
				inner.define(vars[d], v)
			}
			ret, _, err := m.execBlockShared(body, inner)
			if err != nil {
				return err
			}
			if ret != nil {
				return fmt.Errorf("%v: return inside foreach", st.Pos)
			}
		}
		return nil
	}

	// Parallel mode: one goroutine per combined iteration, synchronized at
	// barriers spanning the whole domain (the OpenCL work-group).
	bar := newBarrier(int(total))
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for i := int64(0); i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			inner := newEnv(e)
			for d, v := range indices(i) {
				inner.define(vars[d], v)
			}
			sub := &machine{prog: m.prog}
			if err := sub.execParallelBody(body, inner, bar); err != nil {
				once.Do(func() { firstErr = err })
				bar.abort()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// execParallelBody is exec specialized for a thread of a parallel foreach:
// barriers wait on bar.
func (m *machine) execParallelBody(b *mcpl.Block, e *env, bar *reusableBarrier) error {
	pm := &parallelMachine{machine: m, bar: bar}
	ret, _, err := pm.execBlockShared(b, e)
	if err != nil {
		return err
	}
	if ret != nil {
		return fmt.Errorf("return inside parallel foreach")
	}
	return nil
}

// parallelMachine overrides barrier execution. Statement dispatch is copied
// minimally: barriers can only appear at positions mcpl.Foreach.Chain scans
// (blocks, if, for, while), so those forms route through parallel exec and
// all remaining forms defer to the base machine.
type parallelMachine struct {
	*machine
	bar *reusableBarrier
}

func (pm *parallelMachine) execBlockShared(b *mcpl.Block, e *env) (*retval, bool, error) {
	for _, s := range b.Stmts {
		ret, brk, err := pm.exec(s, e)
		if err != nil || ret != nil || brk {
			return ret, brk, err
		}
	}
	return nil, false, nil
}

func (pm *parallelMachine) exec(s mcpl.Stmt, e *env) (*retval, bool, error) {
	switch st := s.(type) {
	case *mcpl.Barrier:
		if !pm.bar.wait() {
			return nil, false, fmt.Errorf("%v: barrier aborted by failing thread", st.Pos)
		}
		return nil, false, nil
	case *mcpl.Block:
		return pm.execBlockShared(st, newEnv(e))
	case *mcpl.If:
		c, err := pm.eval(st.Cond, e)
		if err != nil {
			return nil, false, err
		}
		if c.(bool) {
			return pm.execBlockShared(st.Then, newEnv(e))
		}
		if st.Else != nil {
			return pm.exec(st.Else, e)
		}
		return nil, false, nil
	case *mcpl.For:
		inner := newEnv(e)
		if st.Init != nil {
			if _, _, err := pm.machine.exec(st.Init, inner); err != nil {
				return nil, false, err
			}
		}
		for {
			if st.Cond != nil {
				c, err := pm.eval(st.Cond, inner)
				if err != nil {
					return nil, false, err
				}
				if !c.(bool) {
					break
				}
			}
			ret, brk, err := pm.execBlockShared(st.Body, newEnv(inner))
			if err != nil || ret != nil || brk {
				return ret, false, err
			}
			if st.Post != nil {
				if _, _, err := pm.machine.exec(st.Post, inner); err != nil {
					return nil, false, err
				}
			}
		}
		return nil, false, nil
	case *mcpl.While:
		for {
			c, err := pm.eval(st.Cond, e)
			if err != nil {
				return nil, false, err
			}
			if !c.(bool) {
				break
			}
			ret, brk, err := pm.execBlockShared(st.Body, newEnv(e))
			if err != nil || ret != nil || brk {
				return ret, false, err
			}
		}
		return nil, false, nil
	default:
		return pm.machine.exec(s, e)
	}
}

// reusableBarrier is a counting barrier usable across multiple phases, with
// abort support so a failing thread does not deadlock the others.
type reusableBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	dead    bool
}

func newBarrier(n int) *reusableBarrier {
	b := &reusableBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n threads arrive. It returns false if the barrier
// was aborted.
func (b *reusableBarrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return false
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.dead {
		b.cond.Wait()
	}
	return !b.dead
}

func (b *reusableBarrier) abort() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (m *machine) execVarDecl(d *mcpl.VarDecl, e *env) error {
	if d.Type.IsArray() {
		dims := make([]int, len(d.Type.Dims))
		for i, de := range d.Type.Dims {
			n, err := m.evalInt(de, e)
			if err != nil {
				return err
			}
			if n < 0 {
				return fmt.Errorf("%v: negative array dimension %d", d.Pos, n)
			}
			dims[i] = int(n)
		}
		var arr *mcpl.Array
		if d.Type.Kind == mcpl.KindFloat {
			arr = mcpl.NewFloatArray(dims...)
		} else {
			arr = mcpl.NewIntArray(dims...)
		}
		e.define(d.Name, arr)
		return nil
	}
	var v any
	switch d.Type.Kind {
	case mcpl.KindInt:
		v = int64(0)
	case mcpl.KindFloat:
		v = float64(0)
	case mcpl.KindBool:
		v = false
	}
	if d.Init != nil {
		iv, err := m.eval(d.Init, e)
		if err != nil {
			return err
		}
		v = convertTo(d.Type.Kind, iv)
	}
	e.define(d.Name, v)
	return nil
}

func convertTo(k mcpl.BasicKind, v any) any {
	switch k {
	case mcpl.KindFloat:
		if i, ok := v.(int64); ok {
			return float64(i)
		}
	case mcpl.KindInt:
		if f, ok := v.(float64); ok {
			return int64(f)
		}
	}
	return v
}

func (m *machine) execAssign(a *mcpl.Assign, e *env) error {
	rhs, err := m.eval(a.Rhs, e)
	if err != nil {
		return err
	}
	apply := func(old any) (any, error) {
		if a.Op == "=" {
			return rhs, nil
		}
		op := a.Op[:1] // "+=" -> "+"
		return binop(a.Pos, op, old, rhs)
	}
	switch lhs := a.Lhs.(type) {
	case *mcpl.Ident:
		c := e.lookup(lhs.Name)
		if c == nil {
			return fmt.Errorf("%v: undefined variable %s", lhs.Pos, lhs.Name)
		}
		nv, err := apply(c.v)
		if err != nil {
			return err
		}
		switch c.v.(type) {
		case float64:
			c.v = convertTo(mcpl.KindFloat, nv)
		case int64:
			c.v = convertTo(mcpl.KindInt, nv)
		default:
			c.v = nv
		}
		return nil
	case *mcpl.Index:
		arr, off, err := m.index(lhs, e)
		if err != nil {
			return err
		}
		var old any
		if arr.Kind == mcpl.KindFloat {
			old = arr.F[off]
		} else {
			old = arr.I[off]
		}
		nv, err := apply(old)
		if err != nil {
			return err
		}
		if arr.Kind == mcpl.KindFloat {
			arr.F[off] = convertTo(mcpl.KindFloat, nv).(float64)
		} else {
			iv, ok := convertTo(mcpl.KindInt, nv).(int64)
			if !ok {
				return fmt.Errorf("%v: cannot store %T in int array", a.Pos, nv)
			}
			arr.I[off] = iv
		}
		return nil
	default:
		return fmt.Errorf("%v: bad assignment target", a.Pos)
	}
}

func (m *machine) execIncDec(s *mcpl.IncDec, e *env) error {
	op := "+="
	if s.Op == "--" {
		op = "-="
	}
	return m.execAssign(&mcpl.Assign{
		Lhs: s.Lhs, Op: op, Rhs: &mcpl.IntLit{Value: 1, Pos: s.Pos}, Pos: s.Pos,
	}, e)
}

func (m *machine) index(x *mcpl.Index, e *env) (*mcpl.Array, int, error) {
	id := x.Array.(*mcpl.Ident)
	c := e.lookup(id.Name)
	if c == nil {
		return nil, 0, fmt.Errorf("%v: undefined array %s", x.Pos, id.Name)
	}
	arr, ok := c.v.(*mcpl.Array)
	if !ok {
		return nil, 0, fmt.Errorf("%v: %s is not an array", x.Pos, id.Name)
	}
	idx := make([]int, len(x.Args))
	for i, a := range x.Args {
		v, err := m.evalInt(a, e)
		if err != nil {
			return nil, 0, err
		}
		idx[i] = int(v)
	}
	off, err := arr.Offset(idx)
	if err != nil {
		return nil, 0, fmt.Errorf("%v: %s: %w", x.Pos, id.Name, err)
	}
	return arr, off, nil
}

func (m *machine) evalInt(x mcpl.Expr, e *env) (int64, error) {
	v, err := m.eval(x, e)
	if err != nil {
		return 0, err
	}
	i, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("%v: expected int, got %T", x.Position(), v)
	}
	return i, nil
}

func (m *machine) eval(x mcpl.Expr, e *env) (any, error) {
	switch v := x.(type) {
	case *mcpl.IntLit:
		return v.Value, nil
	case *mcpl.FloatLit:
		return v.Value, nil
	case *mcpl.BoolLit:
		return v.Value, nil
	case *mcpl.Ident:
		c := e.lookup(v.Name)
		if c == nil {
			return nil, fmt.Errorf("%v: undefined variable %s", v.Pos, v.Name)
		}
		return c.v, nil
	case *mcpl.Unary:
		xv, err := m.eval(v.X, e)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "-":
			switch n := xv.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
		case "!":
			return !xv.(bool), nil
		case "~":
			return ^xv.(int64), nil
		}
		return nil, fmt.Errorf("%v: bad unary %s on %T", v.Pos, v.Op, xv)
	case *mcpl.Cast:
		xv, err := m.eval(v.X, e)
		if err != nil {
			return nil, err
		}
		switch v.To.Kind {
		case mcpl.KindInt:
			switch n := xv.(type) {
			case int64:
				return n, nil
			case float64:
				return int64(n), nil
			}
		case mcpl.KindFloat:
			switch n := xv.(type) {
			case int64:
				return float64(n), nil
			case float64:
				return n, nil
			}
		}
		return nil, fmt.Errorf("%v: bad cast to %s from %T", v.Pos, v.To, xv)
	case *mcpl.Cond:
		c, err := m.eval(v.C, e)
		if err != nil {
			return nil, err
		}
		if c.(bool) {
			return m.eval(v.T, e)
		}
		return m.eval(v.F, e)
	case *mcpl.Binary:
		// Short-circuit logicals.
		if v.Op == "&&" || v.Op == "||" {
			l, err := m.eval(v.L, e)
			if err != nil {
				return nil, err
			}
			lb := l.(bool)
			if v.Op == "&&" && !lb {
				return false, nil
			}
			if v.Op == "||" && lb {
				return true, nil
			}
			r, err := m.eval(v.R, e)
			if err != nil {
				return nil, err
			}
			return r.(bool), nil
		}
		l, err := m.eval(v.L, e)
		if err != nil {
			return nil, err
		}
		r, err := m.eval(v.R, e)
		if err != nil {
			return nil, err
		}
		return binop(v.Pos, v.Op, l, r)
	case *mcpl.Index:
		arr, off, err := m.index(v, e)
		if err != nil {
			return nil, err
		}
		if arr.Kind == mcpl.KindFloat {
			return arr.F[off], nil
		}
		return arr.I[off], nil
	case *mcpl.Call:
		args := make([]any, len(v.Args))
		for i, a := range v.Args {
			av, err := m.eval(a, e)
			if err != nil {
				return nil, err
			}
			args[i] = av
		}
		if _, ok := mcpl.Builtins[v.Name]; ok {
			return callBuiltin(v.Pos, v.Name, args)
		}
		f := m.prog.Func(v.Name)
		if f == nil {
			return nil, fmt.Errorf("%v: undefined function %s", v.Pos, v.Name)
		}
		return m.call(f, args)
	default:
		return nil, fmt.Errorf("%v: unknown expression %T", x.Position(), x)
	}
}

func binop(pos mcpl.Pos, op string, l, r any) (any, error) {
	// Promote int to float when mixed.
	lf, lIsF := l.(float64)
	rf, rIsF := r.(float64)
	li, lIsI := l.(int64)
	ri, rIsI := r.(int64)
	if lIsF || rIsF {
		if lIsI {
			lf, lIsF = float64(li), true
		}
		if rIsI {
			rf, rIsF = float64(ri), true
		}
		if !lIsF || !rIsF {
			return nil, fmt.Errorf("%v: bad operands for %s: %T, %T", pos, op, l, r)
		}
		switch op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			return lf / rf, nil
		case "<":
			return lf < rf, nil
		case "<=":
			return lf <= rf, nil
		case ">":
			return lf > rf, nil
		case ">=":
			return lf >= rf, nil
		case "==":
			return lf == rf, nil
		case "!=":
			return lf != rf, nil
		}
		return nil, fmt.Errorf("%v: operator %s not defined on float", pos, op)
	}
	if lIsI && rIsI {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("%v: integer division by zero", pos)
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("%v: integer modulo by zero", pos)
			}
			return li % ri, nil
		case "<<":
			return li << uint(ri&63), nil
		case ">>":
			return li >> uint(ri&63), nil
		case "&":
			return li & ri, nil
		case "|":
			return li | ri, nil
		case "^":
			return li ^ ri, nil
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		case "==":
			return li == ri, nil
		case "!=":
			return li != ri, nil
		}
	}
	if lb, ok := l.(bool); ok {
		if rb, ok := r.(bool); ok {
			switch op {
			case "==":
				return lb == rb, nil
			case "!=":
				return lb != rb, nil
			}
		}
	}
	return nil, fmt.Errorf("%v: bad operands for %s: %T, %T", pos, op, l, r)
}

func callBuiltin(pos mcpl.Pos, name string, args []any) (any, error) {
	f := func(i int) float64 {
		switch v := args[i].(type) {
		case float64:
			return v
		case int64:
			return float64(v)
		}
		return math.NaN()
	}
	i := func(idx int) int64 { return args[idx].(int64) }
	switch name {
	case "sqrt":
		return math.Sqrt(f(0)), nil
	case "rsqrt":
		return 1 / math.Sqrt(f(0)), nil
	case "fabs":
		return math.Abs(f(0)), nil
	case "floor":
		return math.Floor(f(0)), nil
	case "exp":
		return math.Exp(f(0)), nil
	case "log":
		return math.Log(f(0)), nil
	case "sin":
		return math.Sin(f(0)), nil
	case "cos":
		return math.Cos(f(0)), nil
	case "tan":
		return math.Tan(f(0)), nil
	case "pow":
		return math.Pow(f(0), f(1)), nil
	case "fmin":
		return math.Min(f(0), f(1)), nil
	case "fmax":
		return math.Max(f(0), f(1)), nil
	case "clamp":
		return math.Min(math.Max(f(0), f(1)), f(2)), nil
	case "abs":
		v := i(0)
		if v < 0 {
			v = -v
		}
		return v, nil
	case "min":
		a, b := i(0), i(1)
		if a < b {
			return a, nil
		}
		return b, nil
	case "max":
		a, b := i(0), i(1)
		if a > b {
			return a, nil
		}
		return b, nil
	}
	return nil, fmt.Errorf("%v: unknown builtin %s", pos, name)
}
