package mcpl

import (
	"fmt"
)

// Builtin describes one built-in function.
type Builtin struct {
	Params []BasicKind
	Return BasicKind
}

// Builtins is the MCPL built-in function library (a subset of the OpenCL
// built-ins, which is what MCL maps them to).
var Builtins = map[string]Builtin{
	"sqrt":  {[]BasicKind{KindFloat}, KindFloat},
	"rsqrt": {[]BasicKind{KindFloat}, KindFloat},
	"fabs":  {[]BasicKind{KindFloat}, KindFloat},
	"floor": {[]BasicKind{KindFloat}, KindFloat},
	"exp":   {[]BasicKind{KindFloat}, KindFloat},
	"log":   {[]BasicKind{KindFloat}, KindFloat},
	"sin":   {[]BasicKind{KindFloat}, KindFloat},
	"cos":   {[]BasicKind{KindFloat}, KindFloat},
	"tan":   {[]BasicKind{KindFloat}, KindFloat},
	"pow":   {[]BasicKind{KindFloat, KindFloat}, KindFloat},
	"fmin":  {[]BasicKind{KindFloat, KindFloat}, KindFloat},
	"fmax":  {[]BasicKind{KindFloat, KindFloat}, KindFloat},
	"clamp": {[]BasicKind{KindFloat, KindFloat, KindFloat}, KindFloat},
	"abs":   {[]BasicKind{KindInt}, KindInt},
	"min":   {[]BasicKind{KindInt, KindInt}, KindInt},
	"max":   {[]BasicKind{KindInt, KindInt}, KindInt},
}

// Info is the result of type checking: expression types and the function
// table, consumed by the closure engine, interpreter, translator, analyzer
// and code generator.
type Info struct {
	Types map[Expr]Type
	Prog  *Program
}

// TypeOf returns the checked type of an expression.
func (in *Info) TypeOf(e Expr) Type { return in.Types[e] }

// Check type-checks a program.
func Check(prog *Program) (*Info, error) {
	c := &checker{
		info:  &Info{Types: map[Expr]Type{}, Prog: prog},
		funcs: map[string]*Func{},
	}
	for _, f := range prog.Funcs {
		if _, dup := c.funcs[f.Name]; dup {
			return nil, fmt.Errorf("%v: function %s redeclared", f.Pos, f.Name)
		}
		if _, isBuiltin := Builtins[f.Name]; isBuiltin {
			return nil, fmt.Errorf("%v: function %s shadows a builtin", f.Pos, f.Name)
		}
		c.funcs[f.Name] = f
	}
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return nil, err
		}
	}
	return c.info, nil
}

type symbol struct {
	typ     Type
	space   Space
	loopVar bool // foreach variables are read-only
	isParam bool
}

// scope is one level of the scope chain. parallel marks the scope of a
// barrier-synchronized foreach's loop variables, the boundary of work-item
// private state.
type scope struct {
	parent   *scope
	vars     map[string]*symbol
	parallel bool
}

func (s *scope) lookup(name string) *symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v
		}
	}
	return nil
}

type checker struct {
	info  *Info
	funcs map[string]*Func

	fn           *Func
	foreachDepth int
}

func (c *checker) checkFunc(f *Func) error {
	c.fn = f
	c.foreachDepth = 0
	sc := &scope{vars: map[string]*symbol{}}
	for _, prm := range f.Params {
		if prm.Type.Kind == KindVoid {
			return fmt.Errorf("%v: void parameter %s", prm.Pos, prm.Name)
		}
		if _, dup := sc.vars[prm.Name]; dup {
			return fmt.Errorf("%v: parameter %s redeclared", prm.Pos, prm.Name)
		}
		if err := arrayKind(prm.Pos, prm.Type); err != nil {
			return err
		}
		// Array dimensions must be int expressions over earlier parameters.
		for _, d := range prm.Type.Dims {
			t, err := c.expr(d, sc)
			if err != nil {
				return err
			}
			if t.Kind != KindInt || t.IsArray() {
				return fmt.Errorf("%v: array dimension %s is not an int", d.Position(), ExprString(d))
			}
		}
		sc.vars[prm.Name] = &symbol{typ: prm.Type, space: prm.Space, isParam: true}
	}
	if f.IsKernel() && f.Return.Kind != KindVoid {
		return fmt.Errorf("%v: kernel %s must return void", f.Pos, f.Name)
	}
	if f.Return.IsArray() {
		return fmt.Errorf("%v: function %s cannot return an array", f.Pos, f.Name)
	}
	// The body shares the parameter scope (C semantics: a top-level local
	// cannot shadow a parameter).
	for _, s := range f.Body.Stmts {
		if err := c.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) block(b *Block, parent *scope) error {
	sc := &scope{parent: parent, vars: map[string]*symbol{}}
	for _, s := range b.Stmts {
		if err := c.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt, sc *scope) error {
	switch st := s.(type) {
	case *Block:
		return c.block(st, sc)
	case *VarDecl:
		return c.varDecl(st, sc)
	case *Assign:
		return c.assign(st, sc)
	case *IncDec:
		t, err := c.lvalue(st.Lhs, sc)
		if err != nil {
			return err
		}
		if t.IsArray() || t.Kind == KindBool {
			return fmt.Errorf("%v: %s requires a numeric lvalue", st.Pos, st.Op)
		}
		return nil
	case *If:
		t, err := c.expr(st.Cond, sc)
		if err != nil {
			return err
		}
		if t.Kind != KindBool || t.IsArray() {
			return fmt.Errorf("%v: if condition must be boolean, got %s", st.Cond.Position(), t)
		}
		if err := c.block(st.Then, sc); err != nil {
			return err
		}
		if st.Else != nil {
			return c.stmt(st.Else, sc)
		}
		return nil
	case *For:
		inner := &scope{parent: sc, vars: map[string]*symbol{}}
		if st.Init != nil {
			if err := c.stmt(st.Init, inner); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			t, err := c.expr(st.Cond, inner)
			if err != nil {
				return err
			}
			if t.Kind != KindBool || t.IsArray() {
				return fmt.Errorf("%v: for condition must be boolean, got %s", st.Cond.Position(), t)
			}
		}
		if st.Post != nil {
			if err := c.stmt(st.Post, inner); err != nil {
				return err
			}
		}
		if st.Expect != nil {
			if err := c.intExpr(st.Expect, inner); err != nil {
				return err
			}
		}
		return c.block(st.Body, inner)
	case *While:
		t, err := c.expr(st.Cond, sc)
		if err != nil {
			return err
		}
		if t.Kind != KindBool || t.IsArray() {
			return fmt.Errorf("%v: while condition must be boolean, got %s", st.Cond.Position(), t)
		}
		if st.Expect != nil {
			if err := c.intExpr(st.Expect, sc); err != nil {
				return err
			}
		}
		return c.block(st.Body, sc)
	case *Foreach:
		if !c.fn.IsKernel() {
			return fmt.Errorf("%v: foreach is only allowed in kernels, not helper function %s", st.Pos, c.fn.Name)
		}
		if err := c.intExpr(st.Bound, sc); err != nil {
			return err
		}
		_, _, barrier := st.Chain()
		inner := &scope{parent: sc, vars: map[string]*symbol{}, parallel: barrier}
		inner.vars[st.Var] = &symbol{typ: Type{Kind: KindInt}, loopVar: true}
		c.foreachDepth++
		err := c.block(st.Body, inner)
		c.foreachDepth--
		return err
	case *Return:
		want := c.fn.Return
		if st.Value == nil {
			if want.Kind != KindVoid {
				return fmt.Errorf("%v: missing return value in %s", st.Pos, c.fn.Name)
			}
			return nil
		}
		t, err := c.expr(st.Value, sc)
		if err != nil {
			return err
		}
		if !assignable(want, t) {
			return fmt.Errorf("%v: cannot return %s from function returning %s", st.Pos, t, want)
		}
		return nil
	case *ExprStmt:
		_, err := c.expr(st.X, sc)
		return err
	case *Barrier:
		if c.foreachDepth == 0 {
			return fmt.Errorf("%v: barrier outside foreach", st.Pos)
		}
		return nil
	default:
		return fmt.Errorf("%v: unknown statement %T", s.Position(), s)
	}
}

func (c *checker) varDecl(d *VarDecl, sc *scope) error {
	if _, dup := sc.vars[d.Name]; dup {
		return fmt.Errorf("%v: variable %s redeclared", d.Pos, d.Name)
	}
	for _, dim := range d.Type.Dims {
		if err := c.intExpr(dim, sc); err != nil {
			return err
		}
	}
	if err := arrayKind(d.Pos, d.Type); err != nil {
		return err
	}
	if d.Init != nil {
		if d.Type.IsArray() {
			return fmt.Errorf("%v: array variable %s cannot have an initializer", d.Pos, d.Name)
		}
		t, err := c.expr(d.Init, sc)
		if err != nil {
			return err
		}
		if !assignable(d.Type, t) {
			return fmt.Errorf("%v: cannot initialize %s %s with %s", d.Pos, d.Type, d.Name, t)
		}
	}
	if d.Space == SpaceLocal && !d.Type.IsArray() {
		return fmt.Errorf("%v: local qualifier requires an array", d.Pos)
	}
	sc.vars[d.Name] = &symbol{typ: d.Type, space: d.Space}
	return nil
}

func (c *checker) assign(a *Assign, sc *scope) error {
	lt, err := c.lvalue(a.Lhs, sc)
	if err != nil {
		return err
	}
	if lt.IsArray() {
		return fmt.Errorf("%v: cannot assign whole arrays", a.Pos)
	}
	rt, err := c.expr(a.Rhs, sc)
	if err != nil {
		return err
	}
	if a.Op != "=" && (lt.Kind == KindBool || rt.Kind == KindBool) {
		return fmt.Errorf("%v: %s requires numeric operands", a.Pos, a.Op)
	}
	if a.Op == "%=" && (lt.Kind != KindInt || rt.Kind != KindInt) {
		return fmt.Errorf("%v: operator %%= requires int operands", a.Pos)
	}
	if !assignable(lt, rt) {
		return fmt.Errorf("%v: cannot assign %s to %s", a.Pos, rt, lt)
	}
	return nil
}

// lvalue checks an assignment target. It rejects loop variables, and
// scalars declared outside the barrier-synchronized foreach the assignment
// is in: as in OpenCL, each work-item of such a loop has private scalars
// and shares only arrays with the others, so a write to an outer scalar
// could reach no other work-item and no code after the loop.
func (c *checker) lvalue(e Expr, sc *scope) (Type, error) {
	switch x := e.(type) {
	case *Ident:
		var sym *symbol
		outside := false
		for s := sc; s != nil && sym == nil; s = s.parent {
			if sym = s.vars[x.Name]; sym == nil && s.parallel {
				outside = true
			}
		}
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined variable %s", x.Pos, x.Name)
		}
		if sym.loopVar {
			return Type{}, fmt.Errorf("%v: cannot assign to foreach variable %s", x.Pos, x.Name)
		}
		if outside && !sym.typ.IsArray() {
			return Type{}, fmt.Errorf("%v: cannot assign to %s inside a foreach with a barrier: "+
				"%s is declared outside the loop and work-items share no scalars "+
				"(declare it inside the loop or use a local array)", x.Pos, x.Name, x.Name)
		}
		c.info.Types[e] = sym.typ
		return sym.typ, nil
	case *Index:
		return c.expr(e, sc)
	default:
		return Type{}, fmt.Errorf("%v: invalid assignment target", e.Position())
	}
}

func (c *checker) intExpr(e Expr, sc *scope) error {
	t, err := c.expr(e, sc)
	if err != nil {
		return err
	}
	if t.Kind != KindInt || t.IsArray() {
		return fmt.Errorf("%v: expected int expression, got %s", e.Position(), t)
	}
	return nil
}

// assignable reports whether a value of type from can be assigned to type
// to. int widens implicitly to float; narrowing requires a cast.
func assignable(to, from Type) bool {
	if to.IsArray() || from.IsArray() {
		return to.Equal(from)
	}
	if to.Kind == from.Kind {
		return true
	}
	return to.Kind == KindFloat && from.Kind == KindInt
}

func (c *checker) expr(e Expr, sc *scope) (Type, error) {
	t, err := c.exprInner(e, sc)
	if err != nil {
		return Type{}, err
	}
	c.info.Types[e] = t
	return t, nil
}

func (c *checker) exprInner(e Expr, sc *scope) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return Type{Kind: KindInt}, nil
	case *FloatLit:
		return Type{Kind: KindFloat}, nil
	case *BoolLit:
		return Type{Kind: KindBool}, nil
	case *Ident:
		sym := sc.lookup(x.Name)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined variable %s", x.Pos, x.Name)
		}
		return sym.typ, nil
	case *Unary:
		t, err := c.expr(x.X, sc)
		if err != nil {
			return Type{}, err
		}
		if t.IsArray() {
			return Type{}, fmt.Errorf("%v: unary %s on array", x.Pos, x.Op)
		}
		switch x.Op {
		case "-":
			if t.Kind == KindBool || t.Kind == KindVoid {
				return Type{}, fmt.Errorf("%v: unary - on %s", x.Pos, t)
			}
			return t, nil
		case "!":
			if t.Kind != KindBool {
				return Type{}, fmt.Errorf("%v: unary ! requires boolean", x.Pos)
			}
			return t, nil
		case "~":
			if t.Kind != KindInt {
				return Type{}, fmt.Errorf("%v: unary ~ requires int", x.Pos)
			}
			return t, nil
		}
		return Type{}, fmt.Errorf("%v: unknown unary %s", x.Pos, x.Op)
	case *Cast:
		t, err := c.expr(x.X, sc)
		if err != nil {
			return Type{}, err
		}
		if t.IsArray() || x.To.IsArray() {
			return Type{}, fmt.Errorf("%v: cannot cast arrays", x.Pos)
		}
		if t.Kind == KindBool || t.Kind == KindVoid {
			return Type{}, fmt.Errorf("%v: cannot cast %s to %s", x.Pos, t, x.To)
		}
		if x.To.Kind == KindVoid || x.To.Kind == KindBool {
			return Type{}, fmt.Errorf("%v: cannot cast to %s", x.Pos, x.To)
		}
		return x.To, nil
	case *Cond:
		ct, err := c.expr(x.C, sc)
		if err != nil {
			return Type{}, err
		}
		if ct.Kind != KindBool || ct.IsArray() {
			return Type{}, fmt.Errorf("%v: ternary condition must be boolean", x.Pos)
		}
		tt, err := c.expr(x.T, sc)
		if err != nil {
			return Type{}, err
		}
		ft, err := c.expr(x.F, sc)
		if err != nil {
			return Type{}, err
		}
		if tt.IsArray() || ft.IsArray() {
			return Type{}, fmt.Errorf("%v: ternary branches cannot be arrays", x.Pos)
		}
		return numericJoin(x.Pos, "?:", tt, ft)
	case *Binary:
		lt, err := c.expr(x.L, sc)
		if err != nil {
			return Type{}, err
		}
		rt, err := c.expr(x.R, sc)
		if err != nil {
			return Type{}, err
		}
		if lt.IsArray() || rt.IsArray() {
			return Type{}, fmt.Errorf("%v: operator %s on array", x.Pos, x.Op)
		}
		switch x.Op {
		case "+", "-", "*", "/":
			return numericJoin(x.Pos, x.Op, lt, rt)
		case "%", "<<", ">>", "&", "|", "^":
			if lt.Kind != KindInt || rt.Kind != KindInt {
				return Type{}, fmt.Errorf("%v: operator %s requires int operands", x.Pos, x.Op)
			}
			return Type{Kind: KindInt}, nil
		case "<", "<=", ">", ">=":
			if _, err := numericJoin(x.Pos, x.Op, lt, rt); err != nil {
				return Type{}, err
			}
			return Type{Kind: KindBool}, nil
		case "==", "!=":
			if lt.Kind == KindBool && rt.Kind == KindBool {
				return Type{Kind: KindBool}, nil
			}
			if _, err := numericJoin(x.Pos, x.Op, lt, rt); err != nil {
				return Type{}, err
			}
			return Type{Kind: KindBool}, nil
		case "&&", "||":
			if lt.Kind != KindBool || rt.Kind != KindBool {
				return Type{}, fmt.Errorf("%v: operator %s requires boolean operands", x.Pos, x.Op)
			}
			return Type{Kind: KindBool}, nil
		}
		return Type{}, fmt.Errorf("%v: unknown operator %s", x.Pos, x.Op)
	case *Index:
		id, ok := x.Array.(*Ident)
		if !ok {
			return Type{}, fmt.Errorf("%v: can only index named arrays", x.Pos)
		}
		sym := sc.lookup(id.Name)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined array %s", x.Pos, id.Name)
		}
		if !sym.typ.IsArray() {
			return Type{}, fmt.Errorf("%v: %s is not an array", x.Pos, id.Name)
		}
		if len(x.Args) != len(sym.typ.Dims) {
			return Type{}, fmt.Errorf("%v: array %s has rank %d, indexed with %d subscripts",
				x.Pos, id.Name, len(sym.typ.Dims), len(x.Args))
		}
		for _, a := range x.Args {
			if err := c.intExpr(a, sc); err != nil {
				return Type{}, err
			}
		}
		c.info.Types[x.Array] = sym.typ
		return sym.typ.Elem(), nil
	case *Call:
		if b, ok := Builtins[x.Name]; ok {
			if len(x.Args) != len(b.Params) {
				return Type{}, fmt.Errorf("%v: %s takes %d arguments, got %d", x.Pos, x.Name, len(b.Params), len(x.Args))
			}
			for i, a := range x.Args {
				t, err := c.expr(a, sc)
				if err != nil {
					return Type{}, err
				}
				if !assignable(Type{Kind: b.Params[i]}, t) {
					return Type{}, fmt.Errorf("%v: argument %d of %s: cannot use %s as %s",
						a.Position(), i+1, x.Name, t, Type{Kind: b.Params[i]})
				}
			}
			return Type{Kind: b.Return}, nil
		}
		f, ok := c.funcs[x.Name]
		if !ok {
			return Type{}, fmt.Errorf("%v: undefined function %s", x.Pos, x.Name)
		}
		if f.IsKernel() {
			return Type{}, fmt.Errorf("%v: cannot call kernel %s", x.Pos, x.Name)
		}
		if len(x.Args) != len(f.Params) {
			return Type{}, fmt.Errorf("%v: %s takes %d arguments, got %d", x.Pos, x.Name, len(f.Params), len(x.Args))
		}
		for i, a := range x.Args {
			t, err := c.expr(a, sc)
			if err != nil {
				return Type{}, err
			}
			if !assignable(f.Params[i].Type, t) {
				return Type{}, fmt.Errorf("%v: argument %d of %s: cannot use %s as %s",
					a.Position(), i+1, x.Name, t, f.Params[i].Type)
			}
		}
		return f.Return, nil
	default:
		return Type{}, fmt.Errorf("%v: unknown expression %T", e.Position(), e)
	}
}

// arrayKind rejects arrays of anything but int and float, the element kinds
// an Array holds.
func arrayKind(pos Pos, t Type) error {
	if t.IsArray() && t.Kind != KindInt && t.Kind != KindFloat {
		return fmt.Errorf("%v: %s arrays are not supported", pos, Type{Kind: t.Kind})
	}
	return nil
}

func numericJoin(pos Pos, op string, a, b Type) (Type, error) {
	if a.Kind == KindBool || b.Kind == KindBool || a.Kind == KindVoid || b.Kind == KindVoid {
		return Type{}, fmt.Errorf("%v: operator %s requires numeric operands", pos, op)
	}
	if a.Kind == KindFloat || b.Kind == KindFloat {
		return Type{Kind: KindFloat}, nil
	}
	return Type{Kind: KindInt}, nil
}
