package closure

import (
	"math"

	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

// leaf is an operand its parent closure reads inline rather than through a
// closure call of its own: a scalar slot, a literal, or an array element
// whose indices are all scalar slots or literals. Literals live in read-only
// slots of the frame (see layout), so a scalar leaf is one slot read and an
// element leaf a bounds-checked read at slot-indexed coordinates. Both read
// methods are small enough for the Go compiler to inline into the closure
// that evaluates the parent. Leaves have no side effects, so reading them
// inline changes no evaluation order.
type leaf struct {
	slot int   // scalar slot, or the array's slot for an element
	idx  []int // int slots of an element's indices; nil for a scalar
	pos  mcpl.Pos
	name string
}

func (l *leaf) float(f *frame) float64 {
	if l.idx == nil {
		return f.f[l.slot]
	}
	a := f.a[l.slot]
	return a.F[l.offset(f, a)]
}

func (l *leaf) int(f *frame) int64 {
	if l.idx == nil {
		return f.i[l.slot]
	}
	a := f.a[l.slot]
	return a.I[l.offset(f, a)]
}

// elem resolves an element leaf to its array and flat offset: an assignment
// target.
func (l *leaf) elem(f *frame) (*interp.Array, int) {
	a := f.a[l.slot]
	return a, l.offset(f, a)
}

// offset computes the row-major offset of an element leaf in a, checking
// each dimension in order like the generic path.
func (l *leaf) offset(f *frame, a *interp.Array) (off int) {
	for d, s := range l.idx {
		k, n := f.i[s], a.Dims[d]
		if uint64(k) >= uint64(n) {
			panic(leafFault{l, f})
		}
		off = off*n + int(k)
	}
	return
}

// leafFault is the panic value of an out-of-range leaf index. It formats
// nothing, which keeps offset cheap enough to inline; catch rebuilds the
// message from the frame, which nothing touches between the panic and the
// recover.
type leafFault struct {
	at *leaf
	f  *frame
}

func (e leafFault) error() error {
	l, a := e.at, e.f.a[e.at.slot]
	for d, s := range l.idx {
		if k := e.f.i[s]; uint64(k) >= uint64(a.Dims[d]) {
			return indexError(l.pos, l.name, k, a.Dims[d], d)
		}
	}
	panic("closure: leaf fault with every index in range")
}

// leafOf returns e as a leaf in a context of the given kind (int or float),
// or nil when e must compile to a closure. Casts to the context kind are
// transparent; an int literal in float context becomes a float literal. An
// int variable widened to float is not a leaf: it reads through a closure.
func (fc *fcomp) leafOf(e mcpl.Expr, kind mcpl.BasicKind, sc *cscope) *leaf {
	switch x := e.(type) {
	case *mcpl.IntLit:
		if kind == mcpl.KindFloat {
			return &leaf{slot: fc.cf.lay.floatConst(float64(x.Value))}
		}
		return &leaf{slot: fc.cf.lay.intConst(x.Value)}
	case *mcpl.FloatLit:
		if kind == mcpl.KindFloat {
			return &leaf{slot: fc.cf.lay.floatConst(x.Value)}
		}
	case *mcpl.Ident:
		sym, ok := sc.lookup(x.Name)
		if !ok || sym.typ.IsArray() {
			return nil
		}
		if sym.typ.Kind == kind {
			return &leaf{slot: sym.ref.idx}
		}
	case *mcpl.Cast:
		if x.To.Kind == kind {
			return fc.leafOf(x.X, kind, sc)
		}
	case *mcpl.Index:
		id := x.Array.(*mcpl.Ident)
		sym, ok := sc.lookup(id.Name)
		if !ok || !sym.typ.IsArray() || sym.typ.Kind != kind || len(x.Args) != len(sym.typ.Dims) {
			return nil
		}
		idx := make([]int, len(x.Args))
		for i, a := range x.Args {
			il := fc.leafOf(a, mcpl.KindInt, sc)
			if il == nil || il.idx != nil {
				return nil
			}
			idx[i] = il.slot
		}
		return &leaf{slot: sym.ref.idx, idx: idx, pos: x.Pos, name: id.Name}
	}
	return nil
}

// leafPair reports e as an arithmetic operator of the given result kind
// whose two operands are leaves, the shape a scalar assignment fuses.
func (fc *fcomp) leafPair(e mcpl.Expr, kind mcpl.BasicKind, sc *cscope) (op binOp, l, r *leaf, ok bool) {
	b, isBin := e.(*mcpl.Binary)
	if !isBin {
		return 0, nil, nil, false
	}
	if kind == mcpl.KindFloat {
		op, ok = floatOp(b.Op)
	} else {
		op, ok = intOp(b.Op)
	}
	if t, err := fc.typeOf(e, sc); !ok || err != nil || t.Kind != kind {
		return 0, nil, nil, false
	}
	l, r = fc.leafOf(b.L, kind, sc), fc.leafOf(b.R, kind, sc)
	return op, l, r, l != nil && r != nil
}

// operand is a compiled operand of an operator or assignment: a leaf read
// inline, or else a closure.
type operand[T int64 | float64] struct {
	leaf *leaf
	fn   func(*frame) T
}

func (fc *fcomp) floatOperand(e mcpl.Expr, sc *cscope) (operand[float64], error) {
	if l := fc.leafOf(e, mcpl.KindFloat, sc); l != nil {
		return operand[float64]{leaf: l}, nil
	}
	fn, err := fc.floatExpr(e, sc)
	return operand[float64]{fn: fn}, err
}

func (fc *fcomp) intOperand(e mcpl.Expr, sc *cscope) (operand[int64], error) {
	if l := fc.leafOf(e, mcpl.KindInt, sc); l != nil {
		return operand[int64]{leaf: l}, nil
	}
	fn, err := fc.intExpr(e, sc)
	return operand[int64]{fn: fn}, err
}

// binOp is an arithmetic operator; opSet (plain assignment) yields its right
// operand, so `x = e` and `x op= e` lower through the same closures.
type binOp uint8

const (
	opSet binOp = iota
	opAdd
	opSub
	opMul
	opDiv // float only: int division checks for zero on its own path
	opShl
	opShr
	opAnd
	opOr
	opXor
)

var binOps = map[string]binOp{
	"=": opSet, "+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
	"<<": opShl, ">>": opShr, "&": opAnd, "|": opOr, "^": opXor,
	"+=": opAdd, "-=": opSub, "*=": opMul, "/=": opDiv,
}

// floatOp and intOp report the operators each kind evaluates through
// arith / arithI.
func floatOp(op string) (binOp, bool) {
	o, ok := binOps[op]
	return o, ok && o <= opDiv
}

func intOp(op string) (binOp, bool) {
	o, ok := binOps[op]
	return o, ok && o != opDiv
}

func arith[T int64 | float64](op binOp, a, b T) T {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	case opMul:
		return a * b
	case opDiv:
		return a / b
	}
	return b
}

// arithI adds the int-only operators to arith.
func arithI(op binOp, a, b int64) int64 {
	switch op {
	case opShl:
		return a << uint(b&63)
	case opShr:
		return a >> uint(b&63)
	case opAnd:
		return a & b
	case opOr:
		return a | b
	case opXor:
		return a ^ b
	}
	return arith(op, a, b)
}

// floatArith lowers l op r to one closure; leaf operands are read inline.
func floatArith(op binOp, l, r operand[float64]) floatFn {
	ll, rl, lf, rf := l.leaf, r.leaf, l.fn, r.fn
	switch {
	case ll != nil && rl != nil:
		return func(f *frame) float64 { return arith(op, ll.float(f), rl.float(f)) }
	case ll != nil:
		return func(f *frame) float64 { return arith(op, ll.float(f), rf(f)) }
	case rl != nil:
		return func(f *frame) float64 { return arith(op, lf(f), rl.float(f)) }
	}
	return func(f *frame) float64 { return arith(op, lf(f), rf(f)) }
}

func intArith(op binOp, l, r operand[int64]) intFn {
	ll, rl, lf, rf := l.leaf, r.leaf, l.fn, r.fn
	switch {
	case ll != nil && rl != nil:
		return func(f *frame) int64 { return arithI(op, ll.int(f), rl.int(f)) }
	case ll != nil:
		return func(f *frame) int64 { return arithI(op, ll.int(f), rf(f)) }
	case rl != nil:
		return func(f *frame) int64 { return arithI(op, lf(f), rl.int(f)) }
	}
	return func(f *frame) int64 { return arithI(op, lf(f), rf(f)) }
}

// cmpOp is a comparison operator.
type cmpOp uint8

const (
	cmpLt cmpOp = iota
	cmpLe
	cmpGt
	cmpGe
	cmpEq
	cmpNe
)

var cmpOps = map[string]cmpOp{"<": cmpLt, "<=": cmpLe, ">": cmpGt, ">=": cmpGe, "==": cmpEq, "!=": cmpNe}

func compare[T int64 | float64](op cmpOp, a, b T) bool {
	switch op {
	case cmpLt:
		return a < b
	case cmpLe:
		return a <= b
	case cmpGt:
		return a > b
	case cmpGe:
		return a >= b
	case cmpEq:
		return a == b
	}
	return a != b
}

func floatCompare(op cmpOp, l, r operand[float64]) boolFn {
	ll, rl, lf, rf := l.leaf, r.leaf, l.fn, r.fn
	switch {
	case ll != nil && rl != nil:
		return func(f *frame) bool { return compare(op, ll.float(f), rl.float(f)) }
	case ll != nil:
		return func(f *frame) bool { return compare(op, ll.float(f), rf(f)) }
	case rl != nil:
		return func(f *frame) bool { return compare(op, lf(f), rl.float(f)) }
	}
	return func(f *frame) bool { return compare(op, lf(f), rf(f)) }
}

func intCompare(op cmpOp, l, r operand[int64]) boolFn {
	ll, rl, lf, rf := l.leaf, r.leaf, l.fn, r.fn
	switch {
	case ll != nil && rl != nil:
		return func(f *frame) bool { return compare(op, ll.int(f), rl.int(f)) }
	case ll != nil:
		return func(f *frame) bool { return compare(op, ll.int(f), rf(f)) }
	case rl != nil:
		return func(f *frame) bool { return compare(op, lf(f), rl.int(f)) }
	}
	return func(f *frame) bool { return compare(op, lf(f), rf(f)) }
}

// floatConst and intConst return the read-only slot holding a literal,
// allocating it on first use.
func (l *layout) floatConst(v float64) int {
	bits := math.Float64bits(v)
	if s, ok := l.flits[bits]; ok {
		return s
	}
	s := l.nF
	l.nF++
	l.flits[bits] = s
	return s
}

func (l *layout) intConst(v int64) int {
	if s, ok := l.ilits[v]; ok {
		return s
	}
	s := l.nI
	l.nI++
	l.ilits[v] = s
	return s
}
