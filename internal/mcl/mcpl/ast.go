package mcpl

import (
	"fmt"
	"strings"
)

// Space is a memory space qualifier. At level perfect everything lives in
// the single idealized memory; lower levels distinguish global device
// memory, per-compute-unit local memory and per-thread private memory.
type Space int

// Memory spaces.
const (
	SpaceDefault Space = iota // unqualified: global for arrays, private for scalars
	SpaceGlobal
	SpaceLocal
	SpacePrivate
)

func (s Space) String() string {
	switch s {
	case SpaceGlobal:
		return "global"
	case SpaceLocal:
		return "local"
	case SpacePrivate:
		return "private"
	default:
		return ""
	}
}

// BasicKind enumerates scalar types.
type BasicKind int

// Scalar kinds.
const (
	KindVoid BasicKind = iota
	KindInt
	KindFloat
	KindBool
)

// Type is an MCPL type: a scalar or an array of a scalar with expression
// dimensions (array types track their sizes, one of MCPL's signature
// features).
type Type struct {
	Kind BasicKind
	Dims []Expr // nil for scalars; len(Dims) = rank for arrays
}

// IsArray reports whether the type is an array.
func (t Type) IsArray() bool { return len(t.Dims) > 0 }

// Elem returns the scalar element type of an array type.
func (t Type) Elem() Type { return Type{Kind: t.Kind} }

// ElemSize returns the modeled element size in bytes (single-precision
// floats and 32-bit ints, as in the paper's applications).
func (t Type) ElemSize() int64 {
	switch t.Kind {
	case KindInt, KindFloat:
		return 4
	case KindBool:
		return 1
	default:
		return 0
	}
}

func (t Type) String() string {
	var base string
	switch t.Kind {
	case KindVoid:
		base = "void"
	case KindInt:
		base = "int"
	case KindFloat:
		base = "float"
	case KindBool:
		base = "boolean"
	}
	if !t.IsArray() {
		return base
	}
	dims := make([]string, len(t.Dims))
	for i, d := range t.Dims {
		dims[i] = ExprString(d)
	}
	return base + "[" + strings.Join(dims, ",") + "]"
}

// Equal reports structural equality ignoring dimension expressions (two
// arrays of the same element type and rank are assignment compatible; the
// checker verifies ranks, not symbolic sizes).
func (t Type) Equal(u Type) bool {
	return t.Kind == u.Kind && len(t.Dims) == len(u.Dims)
}

// Param is a function or kernel parameter.
type Param struct {
	Name  string
	Type  Type
	Space Space
	Pos   Pos
}

// Func is a function declaration. A kernel has Level != "" (the
// hardware-description level it is written for, e.g. "perfect"); helper
// functions have Level == "".
type Func struct {
	Level  string
	Name   string
	Return Type
	Params []Param
	Body   *Block
	Pos    Pos
}

// IsKernel reports whether the function is a kernel entry point.
func (f *Func) IsKernel() bool { return f.Level != "" }

// Program is a parsed MCPL file: helper functions plus kernels.
type Program struct {
	Funcs []*Func
}

// Kernel returns the kernel with the given name, or nil.
func (p *Program) Kernel(name string) *Func {
	for _, f := range p.Funcs {
		if f.IsKernel() && f.Name == name {
			return f
		}
	}
	return nil
}

// Func returns the function (kernel or helper) with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Kernels returns all kernel entry points.
func (p *Program) Kernels() []*Func {
	var ks []*Func
	for _, f := range p.Funcs {
		if f.IsKernel() {
			ks = append(ks, f)
		}
	}
	return ks
}

// Stmt is a statement node.
type Stmt interface {
	stmt()
	Position() Pos
}

// Expr is an expression node.
type Expr interface {
	expr()
	Position() Pos
}

// Block is { stmts... }.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// VarDecl declares (and optionally initializes) a variable. Arrays without
// initializers are zero-initialized, matching OpenCL local arrays.
type VarDecl struct {
	Name  string
	Type  Type
	Space Space
	Init  Expr // may be nil
	Pos   Pos
}

// Assign is lhs op rhs where op is "=", "+=", "-=", "*=", "/=" or "%=".
// Lhs is an Ident or an IndexExpr.
type Assign struct {
	Lhs Expr
	Op  string
	Rhs Expr
	Pos Pos
}

// IncDec is lhs++ or lhs--.
type IncDec struct {
	Lhs Expr
	Op  string // "++" or "--"
	Pos Pos
}

// If is a conditional with optional else branch.
type If struct {
	Cond Expr
	Then *Block
	Else Stmt // *Block, *If, or nil
	Pos  Pos
}

// For is a C-style counted loop. Init may be a *VarDecl or *Assign.
type For struct {
	Init   Stmt
	Cond   Expr
	Post   Stmt
	Body   *Block
	Expect Expr // optional @expect(n) trip-count hint for the cost analyzer
	Pos    Pos
}

// While is a condition loop.
type While struct {
	Cond   Expr
	Body   *Block
	Expect Expr // optional @expect(n) hint
	Pos    Pos
}

// Foreach expresses parallelism: `foreach (int i in N unit) body` runs body
// for i in [0,N) on the hardware parallelism identified by unit (e.g.
// "threads", "blocks"), an identifier defined by the hardware description
// the kernel targets.
type Foreach struct {
	Var   string
	Bound Expr
	Unit  string
	Body  *Block
	Pos   Pos
}

// Chain returns the maximal chain of directly nested single-statement
// foreach loops that starts at fe (fe first), the body of the innermost
// loop, and whether that body contains a barrier outside any nested
// foreach. The chain is one combined iteration domain: a barrier
// synchronizes the whole OpenCL work-group, all dimensions at once.
func (fe *Foreach) Chain() (chain []*Foreach, body *Block, barrier bool) {
	for cur := fe; ; {
		chain = append(chain, cur)
		if len(cur.Body.Stmts) == 1 {
			if next, ok := cur.Body.Stmts[0].(*Foreach); ok {
				cur = next
				continue
			}
		}
		return chain, cur.Body, hasDirectBarrier(cur.Body.Stmts)
	}
}

func hasDirectBarrier(ss []Stmt) bool {
	for _, s := range ss {
		switch st := s.(type) {
		case *Barrier:
			return true
		case *Block:
			if hasDirectBarrier(st.Stmts) {
				return true
			}
		case *If:
			if hasDirectBarrier(st.Then.Stmts) || (st.Else != nil && hasDirectBarrier([]Stmt{st.Else})) {
				return true
			}
		case *For:
			if hasDirectBarrier(st.Body.Stmts) {
				return true
			}
		case *While:
			if hasDirectBarrier(st.Body.Stmts) {
				return true
			}
		}
	}
	return false
}

// Return returns from a function; Value is nil for void returns.
type Return struct {
	Value Expr
	Pos   Pos
}

// ExprStmt is an expression evaluated for its side effects (a call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// Barrier synchronizes the threads of the enclosing foreach over a SIMD/
// thread-group parallelism unit (OpenCL barrier(CLK_LOCAL_MEM_FENCE)).
type Barrier struct {
	Pos Pos
}

func (*Block) stmt()    {}
func (*VarDecl) stmt()  {}
func (*Assign) stmt()   {}
func (*IncDec) stmt()   {}
func (*If) stmt()       {}
func (*For) stmt()      {}
func (*While) stmt()    {}
func (*Foreach) stmt()  {}
func (*Return) stmt()   {}
func (*ExprStmt) stmt() {}
func (*Barrier) stmt()  {}

// Position implements Stmt.
func (s *Block) Position() Pos    { return s.Pos }
func (s *VarDecl) Position() Pos  { return s.Pos }
func (s *Assign) Position() Pos   { return s.Pos }
func (s *IncDec) Position() Pos   { return s.Pos }
func (s *If) Position() Pos       { return s.Pos }
func (s *For) Position() Pos      { return s.Pos }
func (s *While) Position() Pos    { return s.Pos }
func (s *Foreach) Position() Pos  { return s.Pos }
func (s *Return) Position() Pos   { return s.Pos }
func (s *ExprStmt) Position() Pos { return s.Pos }
func (s *Barrier) Position() Pos  { return s.Pos }

// Ident references a variable or parameter.
type Ident struct {
	Name string
	Pos  Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
	Pos   Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Value bool
	Pos   Pos
}

// Binary is a binary operation.
type Binary struct {
	Op   string
	L, R Expr
	Pos  Pos
}

// Unary is -x, !x or ~x.
type Unary struct {
	Op  string
	X   Expr
	Pos Pos
}

// Cast is (int)x or (float)x.
type Cast struct {
	To  Type
	X   Expr
	Pos Pos
}

// Cond is the ternary c ? a : b.
type Cond struct {
	C, T, F Expr
	Pos     Pos
}

// Index is a multi-dimensional array access a[i,j].
type Index struct {
	Array Expr // always *Ident after checking
	Args  []Expr
	Pos   Pos
}

// Call invokes a builtin or helper function.
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*Ident) expr()    {}
func (*IntLit) expr()   {}
func (*FloatLit) expr() {}
func (*BoolLit) expr()  {}
func (*Binary) expr()   {}
func (*Unary) expr()    {}
func (*Cast) expr()     {}
func (*Cond) expr()     {}
func (*Index) expr()    {}
func (*Call) expr()     {}

// Position implements Expr.
func (e *Ident) Position() Pos    { return e.Pos }
func (e *IntLit) Position() Pos   { return e.Pos }
func (e *FloatLit) Position() Pos { return e.Pos }
func (e *BoolLit) Position() Pos  { return e.Pos }
func (e *Binary) Position() Pos   { return e.Pos }
func (e *Unary) Position() Pos    { return e.Pos }
func (e *Cast) Position() Pos     { return e.Pos }
func (e *Cond) Position() Pos     { return e.Pos }
func (e *Index) Position() Pos    { return e.Pos }
func (e *Call) Position() Pos     { return e.Pos }

// ExprString renders an expression as MCPL source.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *FloatLit:
		s := fmt.Sprintf("%g", x.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *BoolLit:
		return fmt.Sprintf("%v", x.Value)
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", ExprString(x.L), x.Op, ExprString(x.R))
	case *Unary:
		return fmt.Sprintf("%s%s", x.Op, ExprString(x.X))
	case *Cast:
		return fmt.Sprintf("(%s)%s", x.To, ExprString(x.X))
	case *Cond:
		return fmt.Sprintf("(%s ? %s : %s)", ExprString(x.C), ExprString(x.T), ExprString(x.F))
	case *Index:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s[%s]", ExprString(x.Array), strings.Join(args, ","))
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", "))
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
