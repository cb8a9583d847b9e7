package closure

import (
	"fmt"
	"math"
	"sync"

	"cashmere/internal/mcl/mcpl"
)

// Compile lowers the named kernel of a checked program into a tree of
// slot-indexed Go closures, typing expressions from the checker's info. It
// fails only when the kernel is missing: every program mcpl.Check accepts
// compiles. The result is immutable and safe for concurrent Run. Helper
// functions reachable from the kernel are compiled on demand (recursion
// included).
func Compile(info *mcpl.Info, kernel string) (*Kernel, error) {
	f := info.Prog.Kernel(kernel)
	if f == nil {
		return nil, fmt.Errorf("closure: kernel %q not found", kernel)
	}
	c := &comp{info: info, funcs: map[string]*cfunc{}}
	return &Kernel{fn: f, entry: c.compileFunc(f)}, nil
}

// unchecked panics on a construct the checker rejects: reaching it means
// Compile was given an unchecked program or the two disagree, a bug.
func unchecked(pos mcpl.Pos, what any) {
	panic(fmt.Sprintf("closure: %v: unchecked construct %v", pos, what))
}

// slotRef names one variable's home: a kind-specific bank and an index.
type slotRef struct {
	kind  mcpl.BasicKind
	array bool
	idx   int
}

// cscope is the compile-time scope chain, from names to slots.
type cscope struct {
	parent *cscope
	vars   map[string]slotRef
}

func newScope(parent *cscope) *cscope {
	return &cscope{parent: parent, vars: map[string]slotRef{}}
}

func (s *cscope) lookup(name string) slotRef {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v
		}
	}
	panic("closure: undeclared variable " + name)
}

// cfunc is one compiled function. params/lay/dimChecks are populated before
// the body compiles so recursive calls can reference them; body is read at
// run time through the cfunc pointer.
type cfunc struct {
	fn        *mcpl.Func
	lay       *layout
	params    []slotRef
	dimChecks []dimCheck
	body      stmtFn
}

// dimCheck validates one declared array dimension against the runtime
// argument, evaluated in the callee frame (dimension expressions may
// reference earlier parameters).
type dimCheck struct {
	name string
	slot int
	dim  int
	want intFn
	expr string
}

type comp struct {
	info  *mcpl.Info
	funcs map[string]*cfunc
}

func (c *comp) fnFor(name string) *cfunc {
	if cf, ok := c.funcs[name]; ok {
		return cf
	}
	return c.compileFunc(c.info.Prog.Func(name))
}

func (c *comp) compileFunc(f *mcpl.Func) *cfunc {
	cf := &cfunc{fn: f, lay: newLayout()}
	c.funcs[f.Name] = cf
	fc := &fcomp{c: c, cf: cf}
	sc := newScope(nil)
	for _, prm := range f.Params {
		ref := fc.alloc(prm.Type)
		cf.params = append(cf.params, ref)
		sc.vars[prm.Name] = ref
	}
	for i, prm := range f.Params {
		for d, de := range prm.Type.Dims {
			cf.dimChecks = append(cf.dimChecks, dimCheck{
				name: prm.Name, slot: cf.params[i].idx, dim: d,
				want: fc.intExpr(de, sc), expr: mcpl.ExprString(de),
			})
		}
	}
	// The body shares the parameter scope, as in the checker and interpreter.
	cf.body = fc.blockShared(f.Body, sc)
	return cf
}

// fcomp compiles one function: it owns the slot allocator of cf's layout.
type fcomp struct {
	c  *comp
	cf *cfunc
}

func (fc *fcomp) alloc(t mcpl.Type) slotRef {
	lay := fc.cf.lay
	r := slotRef{kind: t.Kind, array: t.IsArray()}
	switch {
	case r.array:
		r.idx = lay.nA
		lay.nA++
	case t.Kind == mcpl.KindInt:
		r.idx = lay.nI
		lay.nI++
	case t.Kind == mcpl.KindFloat:
		r.idx = lay.nF
		lay.nF++
	default: // the checker admits no void variables
		r.idx = lay.nB
		lay.nB++
	}
	return r
}

// typ returns e's checked type. The literals the compiler builds itself
// (the 1 of x++, a declaration's zero initializer) are not in the checker's
// info, so literals are typed by node kind.
func (fc *fcomp) typ(e mcpl.Expr) mcpl.Type {
	switch e.(type) {
	case *mcpl.IntLit:
		return mcpl.Type{Kind: mcpl.KindInt}
	case *mcpl.FloatLit:
		return mcpl.Type{Kind: mcpl.KindFloat}
	case *mcpl.BoolLit:
		return mcpl.Type{Kind: mcpl.KindBool}
	}
	return fc.c.info.TypeOf(e)
}

// ---------- statements ----------

func nopStmt(*frame) ctrl { return ctrlNext }

func seq(fns []stmtFn) stmtFn {
	switch len(fns) {
	case 0:
		return nopStmt
	case 1:
		return fns[0]
	case 2:
		a, b := fns[0], fns[1]
		return func(f *frame) ctrl {
			if a(f) == ctrlReturn {
				return ctrlReturn
			}
			return b(f)
		}
	default:
		return func(f *frame) ctrl {
			for _, fn := range fns {
				if fn(f) == ctrlReturn {
					return ctrlReturn
				}
			}
			return ctrlNext
		}
	}
}

// blockShared compiles the statements of a block into the given scope
// without opening a new one (function bodies and foreach bodies share their
// parameter/loop-variable scope, matching the interpreter).
func (fc *fcomp) blockShared(b *mcpl.Block, sc *cscope) stmtFn {
	fns := make([]stmtFn, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		fns = append(fns, fc.stmt(s, sc))
	}
	return seq(fns)
}

func (fc *fcomp) block(b *mcpl.Block, parent *cscope) stmtFn {
	return fc.blockShared(b, newScope(parent))
}

func (fc *fcomp) stmt(s mcpl.Stmt, sc *cscope) stmtFn {
	switch st := s.(type) {
	case *mcpl.Block:
		return fc.block(st, sc)
	case *mcpl.VarDecl:
		return fc.varDecl(st, sc)
	case *mcpl.Assign:
		return fc.assign(st, sc)
	case *mcpl.IncDec:
		op := "+="
		if st.Op == "--" {
			op = "-="
		}
		return fc.assign(&mcpl.Assign{
			Lhs: st.Lhs, Op: op, Rhs: &mcpl.IntLit{Value: 1, Pos: st.Pos}, Pos: st.Pos,
		}, sc)
	case *mcpl.If:
		cond := fc.boolExpr(st.Cond, sc)
		then := fc.block(st.Then, sc)
		if st.Else == nil {
			return func(f *frame) ctrl {
				if cond(f) {
					return then(f)
				}
				return ctrlNext
			}
		}
		els := fc.stmt(st.Else, sc)
		return func(f *frame) ctrl {
			if cond(f) {
				return then(f)
			}
			return els(f)
		}
	case *mcpl.For:
		return fc.forLoop(st, newScope(sc))
	case *mcpl.While:
		cond := fc.boolExpr(st.Cond, sc)
		body := fc.block(st.Body, sc)
		return func(f *frame) ctrl {
			for cond(f) {
				if body(f) == ctrlReturn {
					return ctrlReturn
				}
			}
			return ctrlNext
		}
	case *mcpl.Foreach:
		return fc.foreach(st, sc)
	case *mcpl.Return:
		if st.Value == nil {
			return func(*frame) ctrl { return ctrlReturn }
		}
		switch fc.cf.fn.Return.Kind {
		case mcpl.KindFloat:
			v := fc.floatExpr(st.Value, sc)
			return func(f *frame) ctrl {
				f.retf = v(f)
				return ctrlReturn
			}
		case mcpl.KindInt:
			v := fc.intExpr(st.Value, sc)
			return func(f *frame) ctrl {
				f.reti = v(f)
				return ctrlReturn
			}
		}
		v := fc.boolExpr(st.Value, sc)
		return func(f *frame) ctrl {
			f.retb = v(f)
			return ctrlReturn
		}
	case *mcpl.ExprStmt:
		return fc.exprStmt(st, sc)
	case *mcpl.Barrier:
		pos := st.Pos
		return func(f *frame) ctrl {
			if f.bar == nil {
				throw("%v: barrier executed outside parallel foreach", pos)
			}
			if !f.bar.wait() {
				throw("%v: barrier aborted by failing thread", pos)
			}
			return ctrlNext
		}
	}
	unchecked(s.Position(), fmt.Sprintf("%T", s))
	return nil
}

// forLoop compiles a for loop in its own scope inner.
func (fc *fcomp) forLoop(st *mcpl.For, inner *cscope) stmtFn {
	init := nopStmt
	if st.Init != nil {
		init = fc.stmt(st.Init, inner)
	}
	cond := func(*frame) bool { return true }
	if st.Cond != nil {
		cond = fc.boolExpr(st.Cond, inner)
	}
	post := nopStmt
	if st.Post != nil {
		post = fc.stmt(st.Post, inner)
	}
	body := fc.block(st.Body, inner)
	if v, b, le, step, ok := fc.countedFor(st, inner); ok {
		// A native loop over slots. The body may assign the variable or
		// the bound, so both are re-read on every iteration.
		if le {
			return func(f *frame) ctrl {
				for init(f); f.i[v] <= f.i[b]; f.i[v] += step {
					if body(f) == ctrlReturn {
						return ctrlReturn
					}
				}
				return ctrlNext
			}
		}
		return func(f *frame) ctrl {
			for init(f); f.i[v] < f.i[b]; f.i[v] += step {
				if body(f) == ctrlReturn {
					return ctrlReturn
				}
			}
			return ctrlNext
		}
	}
	return func(f *frame) ctrl {
		for init(f); cond(f); post(f) {
			if body(f) == ctrlReturn {
				return ctrlReturn
			}
		}
		return ctrlNext
	}
}

// countedFor matches a for loop of the form `for (init; v < b; v += step)`
// (or `<=`, `v++`, `v--`, `v -= step`) with v an int scalar, b an int scalar
// or literal and step a literal, and returns their slots.
func (fc *fcomp) countedFor(st *mcpl.For, sc *cscope) (v, b int, le bool, step int64, ok bool) {
	cond, isBin := st.Cond.(*mcpl.Binary)
	if !isBin || (cond.Op != "<" && cond.Op != "<=") {
		return 0, 0, false, 0, false
	}
	vl, bl := fc.leafOf(cond.L, mcpl.KindInt, sc), fc.leafOf(cond.R, mcpl.KindInt, sc)
	id, isID := cond.L.(*mcpl.Ident)
	if !isID || vl == nil || vl.idx != nil || bl == nil || bl.idx != nil {
		return 0, 0, false, 0, false
	}
	var lhs mcpl.Expr
	switch p := st.Post.(type) {
	case *mcpl.IncDec:
		lhs, step = p.Lhs, 1
		if p.Op == "--" {
			step = -1
		}
	case *mcpl.Assign:
		lit, isLit := p.Rhs.(*mcpl.IntLit)
		if !isLit || (p.Op != "+=" && p.Op != "-=") {
			return 0, 0, false, 0, false
		}
		lhs, step = p.Lhs, lit.Value
		if p.Op == "-=" {
			step = -step
		}
	default:
		return 0, 0, false, 0, false
	}
	if pid, isID := lhs.(*mcpl.Ident); !isID || pid.Name != id.Name {
		return 0, 0, false, 0, false
	}
	return vl.slot, bl.slot, cond.Op == "<=", step, true
}

func (fc *fcomp) varDecl(d *mcpl.VarDecl, sc *cscope) stmtFn {
	ref := fc.alloc(d.Type)
	if d.Type.IsArray() {
		dimFns := make([]intFn, len(d.Type.Dims))
		for i, de := range d.Type.Dims {
			dimFns[i] = fc.intExpr(de, sc)
		}
		// Bind after dim compilation: dims cannot reference the variable.
		sc.vars[d.Name] = ref
		slot, kind, pos := ref.idx, d.Type.Kind, d.Pos
		return func(f *frame) ctrl {
			dims := make([]int, len(dimFns))
			for i, fn := range dimFns {
				n := fn(f)
				if n < 0 {
					throw("%v: negative array dimension %d", pos, n)
				}
				dims[i] = int(n)
			}
			if kind == mcpl.KindFloat {
				f.a[slot] = mcpl.NewFloatArray(dims...)
			} else {
				f.a[slot] = mcpl.NewIntArray(dims...)
			}
			return ctrlNext
		}
	}
	// A scalar declaration is an assignment of its initializer (or zero),
	// compiled before the name is bound: the initializer cannot see it.
	init := d.Init
	if init == nil {
		switch d.Type.Kind {
		case mcpl.KindFloat:
			init = &mcpl.FloatLit{Pos: d.Pos}
		case mcpl.KindInt:
			init = &mcpl.IntLit{Pos: d.Pos}
		default:
			init = &mcpl.BoolLit{Pos: d.Pos}
		}
	}
	fn := fc.scalarAssign(&mcpl.Assign{Op: "=", Rhs: init, Pos: d.Pos}, ref, sc)
	sc.vars[d.Name] = ref
	return fn
}

func (fc *fcomp) assign(a *mcpl.Assign, sc *cscope) stmtFn {
	if lhs, ok := a.Lhs.(*mcpl.Index); ok {
		return fc.indexAssign(a, lhs, sc)
	}
	// The checker admits writes to an outer scalar only where the frame is
	// shared: nowhere inside the body of a parallel foreach.
	return fc.scalarAssign(a, sc.lookup(a.Lhs.(*mcpl.Ident).Name), sc)
}

// scalarAssign lowers `x = e` and `x op= e` for a scalar slot x. When e is
// a leaf, or an arithmetic operator over two leaves, the whole statement is
// one closure with e read inline.
func (fc *fcomp) scalarAssign(a *mcpl.Assign, ref slotRef, sc *cscope) stmtFn {
	slot := ref.idx
	switch ref.kind {
	case mcpl.KindFloat:
		op, _ := floatOp(a.Op) // the checker admits no float %=
		if bop, l, r, ok := fc.leafPair(a.Rhs, mcpl.KindFloat, sc); ok {
			return func(f *frame) ctrl {
				f.f[slot] = arith(op, f.f[slot], arith(bop, l.float(f), r.float(f)))
				return ctrlNext
			}
		}
		rhs := fc.floatOperand(a.Rhs, sc)
		if l := rhs.leaf; l != nil {
			return func(f *frame) ctrl { f.f[slot] = arith(op, f.f[slot], l.float(f)); return ctrlNext }
		}
		fn := rhs.fn
		return func(f *frame) ctrl { f.f[slot] = arith(op, f.f[slot], fn(f)); return ctrlNext }
	case mcpl.KindInt:
		if op, ok := intOp(a.Op); ok {
			if bop, l, r, ok := fc.leafPair(a.Rhs, mcpl.KindInt, sc); ok {
				return func(f *frame) ctrl {
					f.i[slot] = arithI(op, f.i[slot], arithI(bop, l.int(f), r.int(f)))
					return ctrlNext
				}
			}
			rhs := fc.intOperand(a.Rhs, sc)
			if l := rhs.leaf; l != nil {
				return func(f *frame) ctrl { f.i[slot] = arithI(op, f.i[slot], l.int(f)); return ctrlNext }
			}
			fn := rhs.fn
			return func(f *frame) ctrl { f.i[slot] = arithI(op, f.i[slot], fn(f)); return ctrlNext }
		}
		rhs, pos := fc.intExpr(a.Rhs, sc), a.Pos
		if a.Op == "/=" {
			return func(f *frame) ctrl {
				r := rhs(f)
				if r == 0 {
					throw("%v: integer division by zero", pos)
				}
				f.i[slot] /= r
				return ctrlNext
			}
		}
		return func(f *frame) ctrl {
			r := rhs(f)
			if r == 0 {
				throw("%v: integer modulo by zero", pos)
			}
			f.i[slot] %= r
			return ctrlNext
		}
	}
	rhs := fc.boolExpr(a.Rhs, sc) // booleans admit only `=`
	return func(f *frame) ctrl { f.b[slot] = rhs(f); return ctrlNext }
}

func (fc *fcomp) indexAssign(a *mcpl.Assign, lhs *mcpl.Index, sc *cscope) stmtFn {
	oi, kind := fc.indexRef(lhs, sc)
	pos := a.Pos
	if kind == mcpl.KindFloat {
		op, _ := floatOp(a.Op) // the checker admits no float %=
		rhs := fc.floatExpr(a.Rhs, sc)
		return func(f *frame) ctrl {
			arr, off := oi(f)
			v := rhs(f)
			arr.F[off] = arith(op, arr.F[off], v)
			return ctrlNext
		}
	}
	rhs := fc.intExpr(a.Rhs, sc)
	if op, ok := intOp(a.Op); ok {
		return func(f *frame) ctrl {
			arr, off := oi(f)
			v := rhs(f)
			arr.I[off] = arithI(op, arr.I[off], v)
			return ctrlNext
		}
	}
	if a.Op == "/=" {
		return func(f *frame) ctrl {
			arr, off := oi(f)
			r := rhs(f)
			if r == 0 {
				throw("%v: integer division by zero", pos)
			}
			arr.I[off] /= r
			return ctrlNext
		}
	}
	return func(f *frame) ctrl {
		arr, off := oi(f)
		r := rhs(f)
		if r == 0 {
			throw("%v: integer modulo by zero", pos)
		}
		arr.I[off] %= r
		return ctrlNext
	}
}

func (fc *fcomp) exprStmt(st *mcpl.ExprStmt, sc *cscope) stmtFn {
	t := fc.typ(st.X)
	if t.IsArray() {
		return nopStmt // a bare array name reads nothing
	}
	switch t.Kind {
	case mcpl.KindVoid: // a call of a void helper
		callee, stores := fc.callHelper(st.X.(*mcpl.Call), sc)
		return func(f *frame) ctrl {
			nf := invoke(f, callee, stores)
			callee.lay.put(nf)
			return ctrlNext
		}
	case mcpl.KindFloat:
		v := fc.floatExpr(st.X, sc)
		return func(f *frame) ctrl { v(f); return ctrlNext }
	case mcpl.KindInt:
		v := fc.intExpr(st.X, sc)
		return func(f *frame) ctrl { v(f); return ctrlNext }
	}
	v := fc.boolExpr(st.X, sc)
	return func(f *frame) ctrl { v(f); return ctrlNext }
}

// ---------- foreach ----------

func (fc *fcomp) foreach(st *mcpl.Foreach, sc *cscope) stmtFn {
	// The chain of directly nested single-statement foreach loops is one
	// combined iteration domain (barriers synchronize the whole work-group,
	// all dimensions at once). Bounds compile in the outer scope, matching
	// the interpreter's upfront evaluation.
	type dim struct {
		slot  int
		bound intFn
	}
	chain, body, parallel := st.Chain()
	dims := make([]dim, len(chain))
	inner := newScope(sc)
	for i, fe := range chain {
		bound := fc.intExpr(fe.Bound, sc)
		ref := fc.alloc(mcpl.Type{Kind: mcpl.KindInt})
		inner.vars[fe.Var] = ref
		dims[i] = dim{slot: ref.idx, bound: bound}
	}
	bodyFn := fc.blockShared(body, inner)
	pos := st.Pos

	if !parallel {
		// Sequential mode shares the enclosing frame, so reductions over
		// outer scalars behave exactly like the interpreter's shared cells.
		switch len(dims) {
		case 1:
			d0 := dims[0]
			return func(f *frame) ctrl {
				b0 := checkBound(pos, d0.bound(f))
				for i := int64(0); i < b0; i++ {
					f.i[d0.slot] = i
					if bodyFn(f) == ctrlReturn {
						throw("%v: return inside foreach", pos)
					}
				}
				return ctrlNext
			}
		case 2:
			d0, d1 := dims[0], dims[1]
			return func(f *frame) ctrl {
				b0 := checkBound(pos, d0.bound(f))
				b1 := checkBound(pos, d1.bound(f))
				for i := int64(0); i < b0; i++ {
					f.i[d0.slot] = i
					for j := int64(0); j < b1; j++ {
						f.i[d1.slot] = j
						if bodyFn(f) == ctrlReturn {
							throw("%v: return inside foreach", pos)
						}
					}
				}
				return ctrlNext
			}
		default:
			ds := dims
			return func(f *frame) ctrl {
				bs := make([]int64, len(ds))
				total := int64(1)
				for i, d := range ds {
					bs[i] = checkBound(pos, d.bound(f))
					total *= bs[i]
				}
				for flat := int64(0); flat < total; flat++ {
					rem := flat
					for d := len(ds) - 1; d >= 0; d-- {
						if bs[d] > 0 {
							f.i[ds[d].slot] = rem % bs[d]
							rem /= bs[d]
						}
					}
					if bodyFn(f) == ctrlReturn {
						throw("%v: return inside foreach", pos)
					}
				}
				return ctrlNext
			}
		}
	}

	// Parallel mode: one worker-pool task per combined iteration, private
	// frame copies, synchronized at barriers spanning the whole domain. The
	// checker rejects writes to scalars declared outside the body, so the
	// private copies lose nothing.
	ds := dims
	lay := fc.cf.lay
	return func(f *frame) ctrl {
		bs := make([]int64, len(ds))
		total := int64(1)
		for i, d := range ds {
			bs[i] = checkBound(pos, d.bound(f))
			total *= bs[i]
		}
		if total == 0 {
			return ctrlNext
		}
		bar := newBarrier(int(total))
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for flat := int64(0); flat < total; flat++ {
			sub := lay.get(f.rt)
			sub.copyFrom(f)
			sub.bar = bar
			rem := flat
			for d := len(ds) - 1; d >= 0; d-- {
				if bs[d] > 0 {
					sub.i[ds[d].slot] = rem % bs[d]
					rem /= bs[d]
				}
			}
			wg.Add(1)
			f.rt.submit(func() {
				defer wg.Done()
				if err := runParallelBody(bodyFn, sub, pos); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					bar.abort()
				}
				lay.put(sub)
			})
		}
		wg.Wait()
		if firstErr != nil {
			panic(runtimeError{firstErr})
		}
		return ctrlNext
	}
}

func checkBound(pos mcpl.Pos, b int64) int64 {
	if b < 0 {
		throw("%v: negative foreach bound %d", pos, b)
	}
	return b
}

func runParallelBody(body stmtFn, f *frame, pos mcpl.Pos) (err error) {
	defer catch(&err)
	if body(f) == ctrlReturn {
		return fmt.Errorf("%v: return inside parallel foreach", pos)
	}
	return nil
}

// ---------- array indexing ----------

// indexRef compiles an index expression into a closure resolving the target
// array and flat row-major offset, with per-dimension bounds checks. An
// element whose indices are all leaves resolves through leaf.elem.
func (fc *fcomp) indexRef(x *mcpl.Index, sc *cscope) (func(*frame) (*mcpl.Array, int), mcpl.BasicKind) {
	id := x.Array.(*mcpl.Ident)
	ref := sc.lookup(id.Name)
	if l := fc.leafOf(x, ref.kind, sc); l != nil {
		return l.elem, ref.kind
	}
	idxFns := make([]intFn, len(x.Args))
	for i, a := range x.Args {
		idxFns[i] = fc.intExpr(a, sc)
	}
	slot := ref.idx
	name, pos := id.Name, x.Pos
	return func(f *frame) (*mcpl.Array, int) {
		arr := f.a[slot]
		// Every index is evaluated before any is checked, as in interp.
		var buf [4]int64
		ks := buf[:0]
		for _, fn := range idxFns {
			ks = append(ks, fn(f))
		}
		off := 0
		for d, k := range ks {
			if uint64(k) >= uint64(arr.Dims[d]) {
				panic(runtimeError{indexError(pos, name, k, arr.Dims[d], d)})
			}
			off = off*arr.Dims[d] + int(k)
		}
		return arr, off
	}, ref.kind
}

func indexError(pos mcpl.Pos, name string, k int64, dim, d int) error {
	return fmt.Errorf("%v: %s: index %d out of range [0,%d) in dimension %d", pos, name, k, dim, d)
}

// ---------- helper function calls ----------

func (fc *fcomp) callHelper(x *mcpl.Call, sc *cscope) (*cfunc, []func(cf, nf *frame)) {
	callee := fc.c.fnFor(x.Name)
	stores := make([]func(cf, nf *frame), len(x.Args))
	for i, arg := range x.Args {
		prm := callee.fn.Params[i]
		dst := callee.params[i].idx
		switch {
		case prm.Type.IsArray(): // the checker admits only array names here
			src := sc.lookup(arg.(*mcpl.Ident).Name).idx
			stores[i] = func(cf, nf *frame) { nf.a[dst] = cf.a[src] }
		case prm.Type.Kind == mcpl.KindFloat:
			v := fc.floatExpr(arg, sc)
			stores[i] = func(cf, nf *frame) { nf.f[dst] = v(cf) }
		case prm.Type.Kind == mcpl.KindInt:
			v := fc.intExpr(arg, sc)
			stores[i] = func(cf, nf *frame) { nf.i[dst] = v(cf) }
		default:
			v := fc.boolExpr(arg, sc)
			stores[i] = func(cf, nf *frame) { nf.b[dst] = v(cf) }
		}
	}
	return callee, stores
}

// invoke runs a compiled helper in a pooled frame. The caller reads the
// return slot and must put the frame back.
func invoke(cf *frame, callee *cfunc, stores []func(cf, nf *frame)) *frame {
	nf := callee.lay.get(cf.rt)
	for _, st := range stores {
		st(cf, nf)
	}
	for _, dc := range callee.dimChecks {
		arr := nf.a[dc.slot]
		if want := dc.want(nf); int64(arr.Dims[dc.dim]) != want {
			throw("closure: argument %s dimension %d is %d, want %d (%s)",
				dc.name, dc.dim, arr.Dims[dc.dim], want, dc.expr)
		}
	}
	callee.body(nf)
	return nf
}

// ---------- expressions ----------

// floatExpr compiles a numeric expression in float context: a float
// expression, or an int one widened.
func (fc *fcomp) floatExpr(e mcpl.Expr, sc *cscope) floatFn {
	if fc.typ(e).Kind == mcpl.KindFloat {
		return fc.floatNative(e, sc)
	}
	v := fc.intExpr(e, sc)
	return func(f *frame) float64 { return float64(v(f)) }
}

// floatNative compiles a float-typed expression; leaves read through
// leaf.float.
func (fc *fcomp) floatNative(e mcpl.Expr, sc *cscope) floatFn {
	if l := fc.leafOf(e, mcpl.KindFloat, sc); l != nil {
		return l.float
	}
	switch x := e.(type) {
	case *mcpl.Unary: // only "-" yields float
		v := fc.floatExpr(x.X, sc)
		return func(f *frame) float64 { return -v(f) }
	case *mcpl.Cast:
		return fc.floatExpr(x.X, sc) // (float)x: identity or int widening
	case *mcpl.Cond:
		c, tv, fv := fc.boolExpr(x.C, sc), fc.floatExpr(x.T, sc), fc.floatExpr(x.F, sc)
		return func(f *frame) float64 {
			if c(f) {
				return tv(f)
			}
			return fv(f)
		}
	case *mcpl.Binary: // + - * / (comparisons yield booleans)
		op, _ := floatOp(x.Op)
		return floatArith(op, fc.floatOperand(x.L, sc), fc.floatOperand(x.R, sc))
	case *mcpl.Index:
		oi, _ := fc.indexRef(x, sc)
		return func(f *frame) float64 { arr, off := oi(f); return arr.F[off] }
	case *mcpl.Call:
		if _, ok := mcpl.Builtins[x.Name]; ok {
			return fc.floatBuiltin(x, sc)
		}
		callee, stores := fc.callHelper(x, sc)
		return func(f *frame) float64 {
			nf := invoke(f, callee, stores)
			v := nf.retf
			callee.lay.put(nf)
			return v
		}
	}
	unchecked(e.Position(), mcpl.ExprString(e))
	return nil
}

func (fc *fcomp) floatBuiltin(x *mcpl.Call, sc *cscope) floatFn {
	args := make([]floatFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = fc.floatExpr(a, sc)
	}
	switch x.Name {
	case "sqrt":
		a0 := args[0]
		return func(f *frame) float64 { return math.Sqrt(a0(f)) }
	case "rsqrt":
		a0 := args[0]
		return func(f *frame) float64 { return 1 / math.Sqrt(a0(f)) }
	case "fabs":
		a0 := args[0]
		return func(f *frame) float64 { return math.Abs(a0(f)) }
	case "floor":
		a0 := args[0]
		return func(f *frame) float64 { return math.Floor(a0(f)) }
	case "exp":
		a0 := args[0]
		return func(f *frame) float64 { return math.Exp(a0(f)) }
	case "log":
		a0 := args[0]
		return func(f *frame) float64 { return math.Log(a0(f)) }
	case "sin":
		a0 := args[0]
		return func(f *frame) float64 { return math.Sin(a0(f)) }
	case "cos":
		a0 := args[0]
		return func(f *frame) float64 { return math.Cos(a0(f)) }
	case "tan":
		a0 := args[0]
		return func(f *frame) float64 { return math.Tan(a0(f)) }
	case "pow":
		a0, a1 := args[0], args[1]
		return func(f *frame) float64 { return math.Pow(a0(f), a1(f)) }
	case "fmin":
		a0, a1 := args[0], args[1]
		return func(f *frame) float64 { return math.Min(a0(f), a1(f)) }
	case "fmax":
		a0, a1 := args[0], args[1]
		return func(f *frame) float64 { return math.Max(a0(f), a1(f)) }
	case "clamp":
		a0, a1, a2 := args[0], args[1], args[2]
		return func(f *frame) float64 { return math.Min(math.Max(a0(f), a1(f)), a2(f)) }
	}
	unchecked(x.Pos, "float builtin "+x.Name)
	return nil
}

// intExpr compiles an int-typed expression; leaves read through leaf.int.
func (fc *fcomp) intExpr(e mcpl.Expr, sc *cscope) intFn {
	if l := fc.leafOf(e, mcpl.KindInt, sc); l != nil {
		return l.int
	}
	switch x := e.(type) {
	case *mcpl.Unary:
		v := fc.intExpr(x.X, sc)
		if x.Op == "~" {
			return func(f *frame) int64 { return ^v(f) }
		}
		return func(f *frame) int64 { return -v(f) }
	case *mcpl.Cast:
		if fc.typ(x.X).Kind == mcpl.KindFloat {
			v := fc.floatNative(x.X, sc)
			return func(f *frame) int64 { return int64(v(f)) }
		}
		return fc.intExpr(x.X, sc)
	case *mcpl.Cond:
		c, tv, fv := fc.boolExpr(x.C, sc), fc.intExpr(x.T, sc), fc.intExpr(x.F, sc)
		return func(f *frame) int64 {
			if c(f) {
				return tv(f)
			}
			return fv(f)
		}
	case *mcpl.Binary:
		if op, ok := intOp(x.Op); ok {
			return intArith(op, fc.intOperand(x.L, sc), fc.intOperand(x.R, sc))
		}
		l, r, pos := fc.intExpr(x.L, sc), fc.intExpr(x.R, sc), x.Pos
		if x.Op == "/" {
			return func(f *frame) int64 {
				rv := r(f)
				if rv == 0 {
					throw("%v: integer division by zero", pos)
				}
				return l(f) / rv
			}
		}
		return func(f *frame) int64 {
			rv := r(f)
			if rv == 0 {
				throw("%v: integer modulo by zero", pos)
			}
			return l(f) % rv
		}
	case *mcpl.Index:
		oi, _ := fc.indexRef(x, sc)
		return func(f *frame) int64 { arr, off := oi(f); return arr.I[off] }
	case *mcpl.Call:
		if _, ok := mcpl.Builtins[x.Name]; ok {
			return fc.intBuiltin(x, sc)
		}
		callee, stores := fc.callHelper(x, sc)
		return func(f *frame) int64 {
			nf := invoke(f, callee, stores)
			v := nf.reti
			callee.lay.put(nf)
			return v
		}
	}
	unchecked(e.Position(), mcpl.ExprString(e))
	return nil
}

func (fc *fcomp) intBuiltin(x *mcpl.Call, sc *cscope) intFn {
	args := make([]intFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = fc.intExpr(a, sc)
	}
	switch x.Name {
	case "abs":
		a0 := args[0]
		return func(f *frame) int64 {
			v := a0(f)
			if v < 0 {
				v = -v
			}
			return v
		}
	case "min":
		a0, a1 := args[0], args[1]
		return func(f *frame) int64 {
			a, b := a0(f), a1(f)
			if a < b {
				return a
			}
			return b
		}
	case "max":
		a0, a1 := args[0], args[1]
		return func(f *frame) int64 {
			a, b := a0(f), a1(f)
			if a > b {
				return a
			}
			return b
		}
	}
	unchecked(x.Pos, "int builtin "+x.Name)
	return nil
}

func (fc *fcomp) boolExpr(e mcpl.Expr, sc *cscope) boolFn {
	switch x := e.(type) {
	case *mcpl.BoolLit:
		v := x.Value
		return func(*frame) bool { return v }
	case *mcpl.Ident:
		slot := sc.lookup(x.Name).idx
		return func(f *frame) bool { return f.b[slot] }
	case *mcpl.Unary: // only "!" yields a boolean
		v := fc.boolExpr(x.X, sc)
		return func(f *frame) bool { return !v(f) }
	case *mcpl.Binary:
		switch x.Op {
		case "&&":
			l, r := fc.boolExpr(x.L, sc), fc.boolExpr(x.R, sc)
			return func(f *frame) bool { return l(f) && r(f) }
		case "||":
			l, r := fc.boolExpr(x.L, sc), fc.boolExpr(x.R, sc)
			return func(f *frame) bool { return l(f) || r(f) }
		}
		return fc.compare(x, sc)
	case *mcpl.Call: // no builtin yields a boolean
		callee, stores := fc.callHelper(x, sc)
		return func(f *frame) bool {
			nf := invoke(f, callee, stores)
			v := nf.retb
			callee.lay.put(nf)
			return v
		}
	}
	unchecked(e.Position(), mcpl.ExprString(e))
	return nil
}

func (fc *fcomp) compare(x *mcpl.Binary, sc *cscope) boolFn {
	lt, rt := fc.typ(x.L).Kind, fc.typ(x.R).Kind
	switch {
	case lt == mcpl.KindBool: // == or != on two booleans
		l, r := fc.boolExpr(x.L, sc), fc.boolExpr(x.R, sc)
		if x.Op == "==" {
			return func(f *frame) bool { return l(f) == r(f) }
		}
		return func(f *frame) bool { return l(f) != r(f) }
	case lt == mcpl.KindFloat || rt == mcpl.KindFloat:
		return floatCompare(cmpOps[x.Op], fc.floatOperand(x.L, sc), fc.floatOperand(x.R, sc))
	}
	return intCompare(cmpOps[x.Op], fc.intOperand(x.L, sc), fc.intOperand(x.R, sc))
}
