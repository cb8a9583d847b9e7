// Package closure compiles type-checked MCPL programs into trees of
// specialized Go closures and executes them — the engine behind
// codegen.Compiled.Run. In this reproduction it plays the role the OpenCL
// compiler and a real device play for the paper's system: it gives every
// kernel an executable semantics, so kernels can be verified against Go
// reference implementations at small scale. (Paper-scale problem sizes are
// charged to the device cost model instead; see internal/device.)
//
// Where the tree-walking interpreter (internal/mcl/interp) re-dispatches on
// AST node types and resolves every variable through a map[string]*cell
// chain on each statement of each thread, this package lowers a kernel once:
// every local, parameter and loop variable gets a fixed slot index in a flat
// typed frame, and every expression compiles to a monomorphic
// func(*frame) float64 / int64 / bool closure, so the float and int paths
// never box and variable access is a slice index. Frames come from a
// sync.Pool, keeping per-launch allocation near zero.
//
// Leaf operands cost no closure call of their own: a scalar slot, a literal
// (kept in a read-only frame slot) or an array element whose indices are all
// slots or literals is read inline by the closure of its parent operator,
// comparison or assignment, with the same bounds check and message as the
// generic path. An operator over two leaves is one closure, `x op= l*r` is
// one closure, and a counted loop `for (init; v < b; v++)` (or `<=`, or a
// literal step) with v an int variable and b a variable or literal runs as
// a native Go loop over the slots. That loop re-reads v and b on every
// iteration because the body may assign either. Any other operand keeps
// its generic closure.
//
// foreach keeps the interpreter's semantics: bodies without barriers run
// sequentially in the enclosing frame (so reductions over outer scalars
// work); a foreach whose body contains a direct barrier runs its combined
// iteration domain concurrently — one task per iteration on a reusable
// worker pool, each with a private copy-on-entry frame, synchronized by a
// counting barrier (OpenCL work-group semantics for local-memory tiling
// kernels).
//
// The compiler covers the whole checked language. It types expressions
// from the checker's info, and it relies on the checker's rule that no
// statement in a barrier-synchronized foreach assigns a scalar declared
// outside it, which the private frame copies need. The tree-walking
// interpreter (internal/mcl/interp) is the test oracle this engine is
// checked against; no production code runs it.
package closure

import (
	"fmt"
	"math"
	"sync"

	"cashmere/internal/mcl/mcpl"
)

// ctrl is the result of executing a statement closure.
type ctrl uint8

const (
	ctrlNext ctrl = iota
	ctrlReturn
)

// Typed closure signatures. Keeping these monomorphic is the point of the
// package: a float expression is a func(*frame) float64, never an `any`.
type (
	stmtFn  func(*frame) ctrl
	floatFn func(*frame) float64
	intFn   func(*frame) int64
	boolFn  func(*frame) bool
)

// frame is the activation record of one compiled function (or one parallel
// foreach iteration): flat per-kind slot banks indexed by the compile-time
// slot assignment.
type frame struct {
	i []int64
	f []float64
	b []bool
	a []*mcpl.Array

	// Return value of the function owning the frame, one slot per kind.
	reti int64
	retf float64
	retb bool

	bar *barrier // set while executing the body of a parallel foreach
	rt  *runtime // per-Run state (worker pool)
}

// copyFrom copies all slot banks of src (same layout) into fr: the private
// view a parallel foreach iteration starts from. Arrays are shared by
// pointer, so global and local-memory arrays stay shared across the
// work-group while scalars become thread-private.
func (fr *frame) copyFrom(src *frame) {
	copy(fr.i, src.i)
	copy(fr.f, src.f)
	copy(fr.b, src.b)
	copy(fr.a, src.a)
}

// layout records the slot-bank sizes of one compiled function and pools its
// frames. Literal operands get read-only slots (ilits, flits: value to
// slot), written once when a frame is created; nothing assigns them, so
// pooled and copied frames keep them.
type layout struct {
	nI, nF, nB, nA int
	ilits          map[int64]int
	flits          map[uint64]int // keyed by math.Float64bits
	pool           sync.Pool
}

func newLayout() *layout {
	l := &layout{ilits: map[int64]int{}, flits: map[uint64]int{}}
	l.pool.New = func() any {
		fr := &frame{
			i: make([]int64, l.nI),
			f: make([]float64, l.nF),
			b: make([]bool, l.nB),
			a: make([]*mcpl.Array, l.nA),
		}
		for v, s := range l.ilits {
			fr.i[s] = v
		}
		for bits, s := range l.flits {
			fr.f[s] = math.Float64frombits(bits)
		}
		return fr
	}
	return l
}

func (l *layout) get(rt *runtime) *frame {
	fr := l.pool.Get().(*frame)
	fr.rt = rt
	fr.bar = nil
	fr.reti, fr.retf, fr.retb = 0, 0, false
	return fr
}

// put returns a frame to the pool. Array pointers are cleared so pooled
// frames do not keep verification-scale buffers alive.
func (l *layout) put(fr *frame) {
	for i := range fr.a {
		fr.a[i] = nil
	}
	fr.rt = nil
	fr.bar = nil
	l.pool.Put(fr)
}

// runtimeError carries an MCPL runtime error (index out of range, division
// by zero, ...) up through the closure tree via panic; Kernel.Run and the
// parallel workers recover it into an ordinary error. This keeps the
// expression closures monomorphic — no (T, error) returns on the hot path.
type runtimeError struct{ err error }

func throw(format string, args ...any) {
	panic(runtimeError{fmt.Errorf(format, args...)})
}

// catch recovers a runtimeError or leafFault into *err; other panics
// propagate.
func catch(err *error) {
	if r := recover(); r != nil {
		switch re := r.(type) {
		case runtimeError:
			*err = re.err
		case leafFault:
			*err = re.error()
		default:
			panic(r)
		}
	}
}

// runtime is the per-Run execution state: a pool of reusable workers that
// carry parallel foreach iterations. Goroutines persist across consecutive
// work-group launches within one Run (a tiled matmul executes its 16x16
// group once per block pair; the pool spawns 256 goroutines once, not once
// per block).
type runtime struct {
	mu   sync.Mutex
	idle []*worker
	all  []*worker
}

type worker struct {
	tasks chan func()
}

// submit runs fn on an idle worker, spawning one if none is free. Every
// concurrently submitted task gets its own worker, which the barrier
// semantics require (all iterations of a work-group must be live at once).
func (rt *runtime) submit(fn func()) {
	rt.mu.Lock()
	var w *worker
	if n := len(rt.idle); n > 0 {
		w = rt.idle[n-1]
		rt.idle = rt.idle[:n-1]
		rt.mu.Unlock()
	} else {
		w = &worker{tasks: make(chan func(), 1)}
		rt.all = append(rt.all, w)
		rt.mu.Unlock()
		go w.loop(rt)
	}
	w.tasks <- fn
}

func (w *worker) loop(rt *runtime) {
	for fn := range w.tasks {
		fn()
		rt.mu.Lock()
		rt.idle = append(rt.idle, w)
		rt.mu.Unlock()
	}
}

// close shuts the pool down; workers drain and exit.
func (rt *runtime) close() {
	rt.mu.Lock()
	for _, w := range rt.all {
		close(w.tasks)
	}
	rt.all, rt.idle = nil, nil
	rt.mu.Unlock()
}

// barrier is a reusable counting barrier with abort support, the same
// protocol as the interpreter's (a failing thread must not deadlock the
// rest of its work-group).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	dead    bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n threads arrive; it returns false if the barrier
// was aborted.
func (b *barrier) wait() bool {
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

func (b *barrier) abort() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Kernel is a compiled kernel entry point, safe for concurrent Run.
type Kernel struct {
	fn    *mcpl.Func
	entry *cfunc
}

// Name reports the kernel name.
func (k *Kernel) Name() string { return k.fn.Name }

// Run executes the compiled kernel with the given arguments, in the
// calling convention of mcpl.CoerceArg: scalars as int64/float64/bool,
// arrays as *mcpl.Array passed by reference, dimensions checked against
// the signature's dimension expressions.
func (k *Kernel) Run(args ...any) (err error) {
	cf := k.entry
	if len(args) != len(cf.fn.Params) {
		return fmt.Errorf("closure: %s takes %d arguments, got %d", cf.fn.Name, len(cf.fn.Params), len(args))
	}
	rt := &runtime{}
	defer rt.close()
	fr := cf.lay.get(rt)
	defer cf.lay.put(fr)
	defer catch(&err) // before put: a leafFault reads the frame
	for idx, prm := range cf.fn.Params {
		v, err := mcpl.CoerceArg(prm, args[idx])
		if err != nil {
			return fmt.Errorf("closure: %w", err)
		}
		storeArg(fr, cf.params[idx], v)
	}
	// Validate array ranks and dimensions now that the scalars are bound.
	for idx, prm := range cf.fn.Params {
		if !prm.Type.IsArray() {
			continue
		}
		arr := fr.a[cf.params[idx].idx]
		if len(arr.Dims) != len(prm.Type.Dims) {
			return fmt.Errorf("closure: argument %s has rank %d, want %d", prm.Name, len(arr.Dims), len(prm.Type.Dims))
		}
	}
	for _, dc := range cf.dimChecks {
		arr := fr.a[dc.slot]
		want := dc.want(fr)
		if int64(arr.Dims[dc.dim]) != want {
			return fmt.Errorf("closure: argument %s dimension %d is %d, want %d (%s)",
				dc.name, dc.dim, arr.Dims[dc.dim], want, dc.expr)
		}
	}
	cf.body(fr)
	return nil
}

func storeArg(fr *frame, ref slotRef, v any) {
	if ref.array {
		fr.a[ref.idx] = v.(*mcpl.Array)
		return
	}
	switch ref.kind {
	case mcpl.KindInt:
		fr.i[ref.idx] = v.(int64)
	case mcpl.KindFloat:
		fr.f[ref.idx] = v.(float64)
	case mcpl.KindBool:
		fr.b[ref.idx] = v.(bool)
	}
}
