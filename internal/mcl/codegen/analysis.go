// Package codegen turns checked MCPL kernels into everything Cashmere needs
// at run time: OpenCL-style source text, an executable form (backed by the
// interpreter), glue configuration (work-group/work-item shapes, Sec. III-A),
// and — central to this reproduction — a cost descriptor derived from static
// analysis.
//
// The same analysis drives the stepwise-refinement feedback engine
// (mcl/feedback): uncoalesced accesses, missing local-memory reuse and SIMD
// divergence both generate feedback messages and degrade the modeled
// efficiency factors, so following the compiler's advice genuinely improves
// modeled performance, as it does on real hardware.
package codegen

import (
	"fmt"
	"sort"
	"sync/atomic"

	"cashmere/internal/mcl/mcpl"
)

// Access describes one static global-memory access site, classified
// relative to the SIMD lane dimension (the innermost foreach).
type Access struct {
	Array    string
	Pos      mcpl.Pos
	Write    bool
	Bytes    float64 // dynamic traffic attributed to this site
	Class    AccessClass
	InLoop   bool // executed under a sequential loop
	LoopFree bool // subscripts do not depend on the enclosing sequential loop variables
}

// AccessClass classifies an access pattern across the SIMD lanes.
type AccessClass int

// Access classes.
const (
	AccessUniform   AccessClass = iota // same address across lanes: broadcast/cached
	AccessCoalesced                    // unit stride across lanes
	AccessStrided                      // constant non-unit stride
	AccessGathered                     // data-dependent address
)

func (c AccessClass) String() string {
	switch c {
	case AccessUniform:
		return "uniform"
	case AccessCoalesced:
		return "coalesced"
	case AccessStrided:
		return "strided"
	default:
		return "gathered"
	}
}

// Report is the result of analyzing one kernel launch with concrete scalar
// parameters.
type Report struct {
	Kernel string
	Level  string

	Flops          float64 // useful floating-point operations
	DivergentFlops float64 // flops under data-dependent control flow

	UniformBytes    float64 // broadcast/cached traffic (discounted by SIMD width)
	CoalescedBytes  float64
	StridedBytes    float64
	GatheredBytes   float64
	LocalBytes      int64 // local-memory footprint per work-group
	UsesLocalMemory bool

	Accesses []Access
	Warnings []string

	// ThreadParallelism is the product of the foreach extents: the exposed
	// parallelism of the launch.
	ThreadParallelism float64

	// Deps lists, sorted, the scalar int parameters whose values the report
	// depends on. Two launches that agree on them get identical reports.
	Deps []string
}

// TotalBytes reports the modeled off-chip traffic.
func (r *Report) TotalBytes() float64 {
	return r.UniformBytes + r.CoalescedBytes + r.StridedBytes + r.GatheredBytes
}

// DivergentFrac reports the fraction of flops under divergent control flow.
func (r *Report) DivergentFrac() float64 {
	if r.Flops == 0 {
		return 0
	}
	return r.DivergentFlops / r.Flops
}

// CoalescedFrac reports the fraction of lane-dependent traffic that is
// coalesced.
func (r *Report) CoalescedFrac() float64 {
	lane := r.CoalescedBytes + r.StridedBytes + r.GatheredBytes
	if lane == 0 {
		return 1
	}
	return r.CoalescedBytes / lane
}

// checkCalls counts the type checks this package runs, so tests can pin
// that launches reuse the Info their kernel set was checked with.
var checkCalls atomic.Int64

func check(prog *mcpl.Program) (*mcpl.Info, error) {
	checkCalls.Add(1)
	return mcpl.Check(prog)
}

// Analyze statically analyzes a kernel launch. params maps every scalar int
// parameter to its concrete launch value; simdWidth is the lane width of the
// target device (32 for NVIDIA, 64 for AMD, 16 for the Phi, 4 for SSE CPUs).
// It type-checks prog first; callers holding the checker's Info use
// AnalyzeChecked.
func Analyze(prog *mcpl.Program, kernel string, params map[string]int64, simdWidth int) (*Report, error) {
	info, err := check(prog)
	if err != nil {
		return nil, fmt.Errorf("codegen: kernel does not type-check: %w", err)
	}
	return AnalyzeChecked(info, kernel, params, simdWidth)
}

// AnalyzeChecked is Analyze for a program already type-checked into info.
//
// Report.Deps is sound by construction. The traversal visits every statement
// and expression the same way whatever the parameter values: loops are
// walked once, both branches of every if, and no abstract value decides
// which code is visited. Parameter values enter the report only where the
// analyzer turns a constant into a decision (foreach extents, for-loop
// init/step/bound, @expect hints, array dimensions, the constant factor of an
// affine product, the divisor test of / and %, and the t == f test of ?:).
// Each abstract value carries the set of parameters its constant was
// computed from, and every such site marks that set observed. So two
// launches that agree on the observed parameters take identical decisions
// and get identical reports.
func AnalyzeChecked(info *mcpl.Info, kernel string, params map[string]int64, simdWidth int) (*Report, error) {
	prog := info.Prog
	f := prog.Kernel(kernel)
	if f == nil {
		return nil, fmt.Errorf("codegen: kernel %q not found", kernel)
	}
	if simdWidth < 1 {
		simdWidth = 1
	}
	a := &analyzer{
		prog:   prog,
		info:   info,
		rep:    &Report{Kernel: kernel, Level: f.Level, ThreadParallelism: 1},
		simd:   simdWidth,
		spaces: map[string]mcpl.Space{},
		dims:   map[string][]mcpl.Expr{},
	}
	env := map[string]*aval{}
	var names []string // scalar int parameters, by dependency bit
	for _, prm := range f.Params {
		if prm.Type.IsArray() {
			space := prm.Space
			if space == mcpl.SpaceDefault {
				space = mcpl.SpaceGlobal
			}
			a.spaces[prm.Name] = space
			a.dims[prm.Name] = prm.Type.Dims
			continue
		}
		if prm.Type.Kind != mcpl.KindInt {
			env[prm.Name] = symval() // float/bool params are uniform values
			continue
		}
		v, ok := params[prm.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: missing launch value for scalar parameter %q", prm.Name)
		}
		av := &aval{val: v}
		if len(names) < 64 {
			av.deps = 1 << len(names)
		} else {
			// Beyond the bitset: conservatively a dependency.
			a.rep.Deps = append(a.rep.Deps, prm.Name)
		}
		names = append(names, prm.Name)
		env[prm.Name] = av
	}
	a.block(f.Body, env, ctx{mult: 1})
	sort.Slice(a.rep.Warnings, func(i, j int) bool { return a.rep.Warnings[i] < a.rep.Warnings[j] })
	for i, name := range names {
		if i < 64 && a.observed&(1<<i) != 0 {
			a.rep.Deps = append(a.rep.Deps, name)
		}
	}
	sort.Strings(a.rep.Deps)
	return a.rep, nil
}

// aval is an abstract value: constant + affine combination of parallel/loop
// variables + a data-dependence taint. deps is the set of scalar int
// parameters (bit i = the kernel's i-th one) val was computed from;
// coefficients only ever carry observed parameters (see mulval).
type aval struct {
	val     int64
	coeffs  map[string]int64 // variable name -> coefficient
	dataDep bool
	deps    uint64
}

func (v *aval) known() bool { return v != nil && !v.dataDep && len(v.coeffs) == 0 }

func (v *aval) clone() *aval {
	nv := &aval{val: v.val, dataDep: v.dataDep, deps: v.deps}
	if len(v.coeffs) > 0 {
		nv.coeffs = make(map[string]int64, len(v.coeffs))
		for k, c := range v.coeffs {
			nv.coeffs[k] = c
		}
	}
	return nv
}

func unknown() *aval { return &aval{dataDep: true} }

// symval is a uniform-but-unknown value: the same for every thread (so not
// divergence-inducing) but not a usable constant (so not known). Encoded as
// an affine term on a reserved symbol no lane or loop variable ever uses.
func symval() *aval { return &aval{coeffs: map[string]int64{"$sym": 1}} }

func add(a, b *aval, sign int64) *aval {
	out := &aval{val: a.val + sign*b.val, dataDep: a.dataDep || b.dataDep, deps: a.deps | b.deps}
	out.coeffs = map[string]int64{}
	for k, c := range a.coeffs {
		out.coeffs[k] += c
	}
	for k, c := range b.coeffs {
		out.coeffs[k] += sign * c
	}
	for k, c := range out.coeffs {
		if c == 0 {
			delete(out.coeffs, k)
		}
	}
	return out
}

func (an *analyzer) mulval(a, b *aval) *aval {
	// Affine × constant stays affine; anything else is data-dependent for
	// stride purposes (conservative).
	if a.known() {
		a, b = b, a
	}
	if b.known() {
		out := &aval{val: a.val * b.val, dataDep: a.dataDep, deps: a.deps | b.deps}
		out.coeffs = map[string]int64{}
		if len(a.coeffs) > 0 {
			an.observe(b) // the constant scales the coefficients
		}
		for k, c := range a.coeffs {
			out.coeffs[k] = c * b.val
		}
		return out
	}
	return &aval{dataDep: true}
}

// ctx carries the traversal context.
type ctx struct {
	mult      float64 // execution multiplicity
	divergent bool    // under data-dependent control flow
	laneVar   string  // name of the SIMD lane variable, if inside an innermost foreach
	inLoop    bool    // under a sequential loop
	loopVars  []string
	depth     int // helper-inline depth
}

type analyzer struct {
	prog   *mcpl.Program
	info   *mcpl.Info
	rep    *Report
	simd   int
	spaces map[string]mcpl.Space
	dims   map[string][]mcpl.Expr

	warned   map[string]bool
	observed uint64 // parameters whose values decided the report
}

// observe records that the constants of vs decided the report.
func (a *analyzer) observe(vs ...*aval) {
	for _, v := range vs {
		a.observed |= v.deps
	}
}

// isFloat reports whether the checker assigned a floating-point type to the
// expression; integer arithmetic is address math, not flops.
func (a *analyzer) isFloat(e mcpl.Expr) bool {
	return a.info.TypeOf(e).Kind == mcpl.KindFloat
}

func (a *analyzer) warn(format string, args ...any) {
	if a.warned == nil {
		a.warned = map[string]bool{}
	}
	msg := fmt.Sprintf(format, args...)
	if !a.warned[msg] {
		a.warned[msg] = true
		a.rep.Warnings = append(a.rep.Warnings, msg)
	}
}

func (a *analyzer) flops(n float64, c ctx) {
	a.rep.Flops += n * c.mult
	if c.divergent {
		a.rep.DivergentFlops += n * c.mult
	}
}

func (a *analyzer) block(b *mcpl.Block, env map[string]*aval, c ctx) {
	inner := childEnv(env)
	for _, s := range b.Stmts {
		a.stmt(s, inner, c)
	}
}

// childEnv layers a scope; lookups fall through via copy-on-read semantics.
// A flat copy is sufficient because the analyzer only needs approximate
// dataflow.
func childEnv(env map[string]*aval) map[string]*aval {
	out := make(map[string]*aval, len(env)+4)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// isInnermostForeach reports whether no nested foreach exists below b.
func isInnermostForeach(b *mcpl.Block) bool {
	found := false
	var scan func(ss []mcpl.Stmt)
	scan = func(ss []mcpl.Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *mcpl.Foreach:
				found = true
			case *mcpl.Block:
				scan(st.Stmts)
			case *mcpl.If:
				scan(st.Then.Stmts)
				if st.Else != nil {
					scan([]mcpl.Stmt{st.Else})
				}
			case *mcpl.For:
				scan(st.Body.Stmts)
			case *mcpl.While:
				scan(st.Body.Stmts)
			}
		}
	}
	scan(b.Stmts)
	return !found
}

func (a *analyzer) stmt(s mcpl.Stmt, env map[string]*aval, c ctx) {
	switch st := s.(type) {
	case *mcpl.Block:
		a.block(st, env, c)
	case *mcpl.VarDecl:
		if st.Type.IsArray() {
			space := st.Space
			if space == mcpl.SpaceDefault {
				// Function-scope arrays are thread-private unless qualified
				// (OpenCL semantics); only parameters default to global.
				space = mcpl.SpacePrivate
			}
			a.spaces[st.Name] = space
			a.dims[st.Name] = st.Type.Dims
			if st.Space == mcpl.SpaceLocal {
				a.rep.UsesLocalMemory = true
				size := st.Type.ElemSize()
				for _, d := range st.Type.Dims {
					dv := a.eval(d, env, c)
					if dv.known() {
						a.observe(dv)
						size *= dv.val
					} else {
						a.warn("%v: local array %s has non-constant dimension; occupancy unknown", st.Pos, st.Name)
					}
				}
				a.rep.LocalBytes += size
			}
			return
		}
		if st.Init != nil {
			env[st.Name] = a.eval(st.Init, env, c)
		} else {
			env[st.Name] = &aval{}
		}
	case *mcpl.Assign:
		rhs := a.eval(st.Rhs, env, c)
		switch lhs := st.Lhs.(type) {
		case *mcpl.Ident:
			if st.Op == "=" {
				env[lhs.Name] = rhs
			} else {
				old, ok := env[lhs.Name]
				if !ok {
					old = unknown()
				}
				env[lhs.Name] = a.combineOp(st.Op, old, rhs)
				if a.isFloat(st.Lhs) {
					a.flops(1, c) // compound assign implies an arithmetic op
				}
			}
		case *mcpl.Index:
			a.access(lhs, env, c, true)
			if st.Op != "=" {
				a.access(lhs, env, c, false) // read-modify-write reads too
				if a.isFloat(st.Lhs) {
					a.flops(1, c)
				}
			}
		}
	case *mcpl.IncDec:
		if lhs, ok := st.Lhs.(*mcpl.Ident); ok {
			old, okv := env[lhs.Name]
			if !okv {
				old = unknown()
			}
			env[lhs.Name] = add(old, &aval{val: 1}, incSign(st.Op))
		}
	case *mcpl.If:
		cond := a.eval(st.Cond, env, c)
		cc := c
		if cond.dataDep {
			cc.divergent = true
			cc.mult = c.mult * 0.5
		}
		a.block(st.Then, env, cc)
		if st.Else != nil {
			a.stmt(st.Else, env, cc)
		}
	case *mcpl.For:
		inner := childEnv(env)
		var loopVar string
		if st.Init != nil {
			a.stmt(st.Init, inner, c)
			if vd, ok := st.Init.(*mcpl.VarDecl); ok {
				loopVar = vd.Name
			}
		}
		trips := a.tripCount(st, inner, c)
		cc := c
		cc.mult = c.mult * trips
		cc.inLoop = cc.inLoop || trips > 1
		if loopVar != "" {
			cc.loopVars = append(append([]string{}, c.loopVars...), loopVar)
			inner[loopVar] = &aval{coeffs: map[string]int64{loopVar: 1}}
		}
		if st.Cond != nil {
			a.eval(st.Cond, inner, cc)
		}
		a.block(st.Body, inner, cc)
	case *mcpl.While:
		trips := float64(8)
		if st.Expect != nil {
			ev := a.eval(st.Expect, env, c)
			if ev.known() {
				a.observe(ev)
				trips = float64(ev.val)
			}
		} else {
			a.warn("%v: while loop without @expect hint; assuming %d iterations", st.Pos, 8)
		}
		cc := c
		cc.mult = c.mult * trips
		cc.inLoop = true
		cond := a.eval(st.Cond, env, c)
		if cond.dataDep {
			cc.divergent = true
		}
		a.block(st.Body, env, cc)
	case *mcpl.Foreach:
		bound := a.eval(st.Bound, env, c)
		extent := float64(1)
		if bound.known() {
			a.observe(bound)
			extent = float64(bound.val)
		} else {
			a.warn("%v: foreach bound %s is not a launch constant", st.Pos, mcpl.ExprString(st.Bound))
		}
		if extent < 1 {
			extent = 1
		}
		cc := c
		cc.mult = c.mult * extent
		a.rep.ThreadParallelism *= extent
		inner := childEnv(env)
		inner[st.Var] = &aval{coeffs: map[string]int64{st.Var: 1}}
		if isInnermostForeach(st.Body) {
			cc.laneVar = st.Var
		}
		a.block(st.Body, inner, cc)
	case *mcpl.Return:
		if st.Value != nil {
			a.eval(st.Value, env, c)
		}
	case *mcpl.ExprStmt:
		a.eval(st.X, env, c)
	case *mcpl.Barrier:
		// Synchronization cost is folded into the compute efficiency.
	}
}

func incSign(op string) int64 {
	if op == "--" {
		return -1
	}
	return 1
}

func (a *analyzer) combineOp(op string, old, rhs *aval) *aval {
	switch op {
	case "+=":
		return add(old, rhs, 1)
	case "-=":
		return add(old, rhs, -1)
	case "*=":
		return a.mulval(old, rhs)
	default:
		return unknown()
	}
}

// tripCount estimates the iterations of a for loop.
func (a *analyzer) tripCount(st *mcpl.For, env map[string]*aval, c ctx) float64 {
	if st.Expect != nil {
		ev := a.eval(st.Expect, env, c)
		if ev.known() {
			a.observe(ev)
			return float64(ev.val)
		}
	}
	// Pattern: init `v = A`, cond `v < B` (or <=), post v++/v+=s.
	var initVal *aval
	var name string
	switch in := st.Init.(type) {
	case *mcpl.VarDecl:
		name = in.Name
		if in.Init != nil {
			initVal = a.eval(in.Init, env, c)
		}
	case *mcpl.Assign:
		if id, ok := in.Lhs.(*mcpl.Ident); ok && in.Op == "=" {
			name = id.Name
			initVal = a.eval(in.Rhs, env, c)
		}
	}
	step := int64(0)
	switch po := st.Post.(type) {
	case *mcpl.IncDec:
		if id, ok := po.Lhs.(*mcpl.Ident); ok && id.Name == name {
			step = incSign(po.Op)
		}
	case *mcpl.Assign:
		if id, ok := po.Lhs.(*mcpl.Ident); ok && id.Name == name {
			rv := a.eval(po.Rhs, env, c)
			if rv.known() {
				a.observe(rv)
				switch po.Op {
				case "+=":
					step = rv.val
				case "-=":
					step = -rv.val
				}
			}
		}
	}
	if cond, ok := st.Cond.(*mcpl.Binary); ok && initVal != nil && initVal.known() && step != 0 {
		if id, ok := cond.L.(*mcpl.Ident); ok && id.Name == name {
			bound := a.eval(cond.R, env, c)
			if bound.known() {
				a.observe(initVal, bound)
				var n int64
				switch cond.Op {
				case "<":
					n = ceilDiv(bound.val-initVal.val, step)
				case "<=":
					n = ceilDiv(bound.val-initVal.val+1, step)
				case ">":
					n = ceilDiv(initVal.val-bound.val, -step)
				case ">=":
					n = ceilDiv(initVal.val-bound.val+1, -step)
				}
				if n < 0 {
					n = 0
				}
				return float64(n)
			}
		}
	}
	a.warn("%v: cannot determine loop trip count; assuming %d (add @expect)", st.Pos, 8)
	return 8
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if (a > 0) == (b > 0) {
		return (a + b - 1) / b
	}
	return a / b
}

// access records a global-memory access site.
func (a *analyzer) access(x *mcpl.Index, env map[string]*aval, c ctx, write bool) {
	name := x.Array.(*mcpl.Ident).Name
	space := a.spaces[name]
	if space == mcpl.SpaceLocal || space == mcpl.SpacePrivate {
		return // on-chip
	}
	// Stride of the flattened address with respect to the lane variable.
	dims := a.dims[name]
	strides := make([]int64, len(dims))
	s := int64(1)
	ok := true
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		dv := a.eval(dims[i], env, c)
		if dv.known() {
			a.observe(dv)
			s *= dv.val
		} else {
			ok = false
		}
	}
	class := AccessUniform
	laneCoeff := int64(0)
	dep := false
	loopFree := true
	for i, sub := range x.Args {
		sv := a.eval(sub, env, c)
		if sv.dataDep {
			dep = true
		}
		if c.laneVar != "" {
			laneCoeff += sv.coeffs[c.laneVar] * strides[i]
		}
		for _, lv := range c.loopVars {
			if sv.coeffs[lv] != 0 {
				loopFree = false
			}
		}
	}
	switch {
	case dep:
		class = AccessGathered
	case laneCoeff == 0:
		class = AccessUniform
	case laneCoeff == 1 || laneCoeff == -1:
		class = AccessCoalesced
	default:
		class = AccessStrided
	}
	if !ok {
		// Unknown dims: be conservative about strides but do not misreport
		// uniform as gathered.
		if class == AccessStrided {
			class = AccessGathered
		}
	}
	bytes := 4 * c.mult
	switch class {
	case AccessUniform:
		// Same address across the warp: served once per warp by broadcast
		// or cache.
		bytes /= float64(a.simd)
		a.rep.UniformBytes += bytes
	case AccessCoalesced:
		a.rep.CoalescedBytes += bytes
	case AccessStrided:
		a.rep.StridedBytes += bytes
	case AccessGathered:
		a.rep.GatheredBytes += bytes
	}
	a.rep.Accesses = append(a.rep.Accesses, Access{
		Array:    name,
		Pos:      x.Pos,
		Write:    write,
		Bytes:    bytes,
		Class:    class,
		InLoop:   c.inLoop,
		LoopFree: loopFree,
	})
}

var builtinFlops = map[string]float64{
	"sqrt": 1, "rsqrt": 2, "fabs": 1, "floor": 1,
	"exp": 8, "log": 8, "sin": 8, "cos": 8, "tan": 10, "pow": 16,
	"fmin": 1, "fmax": 1, "clamp": 2,
	"abs": 0, "min": 0, "max": 0,
}

// eval abstractly evaluates an expression, counting flops and classifying
// memory accesses as a side effect.
func (a *analyzer) eval(x mcpl.Expr, env map[string]*aval, c ctx) *aval {
	switch v := x.(type) {
	case *mcpl.IntLit:
		return &aval{val: v.Value}
	case *mcpl.FloatLit:
		return symval() // uniform across threads; never feeds address math
	case *mcpl.BoolLit:
		return &aval{}
	case *mcpl.Ident:
		if av, ok := env[v.Name]; ok {
			return av.clone()
		}
		return unknown()
	case *mcpl.Unary:
		xv := a.eval(v.X, env, c)
		if v.Op == "-" {
			if a.isFloat(v) {
				a.flops(0.5, c) // negation is cheap; count fractionally
			}
			return a.mulval(xv, &aval{val: -1})
		}
		return xv
	case *mcpl.Cast:
		return a.eval(v.X, env, c)
	case *mcpl.Cond:
		cv := a.eval(v.C, env, c)
		cc := c
		if cv.dataDep {
			cc.divergent = true
			cc.mult = c.mult * 0.5
		}
		t := a.eval(v.T, env, cc)
		f := a.eval(v.F, env, cc)
		if t.known() && f.known() {
			a.observe(t, f)
			if t.val == f.val {
				return t
			}
		}
		out := unknown()
		out.dataDep = cv.dataDep || t.dataDep || f.dataDep
		return out
	case *mcpl.Binary:
		l := a.eval(v.L, env, c)
		r := a.eval(v.R, env, c)
		switch v.Op {
		case "+", "-", "*", "/":
			if a.isFloat(v) {
				a.flops(1, c)
			}
		}
		switch v.Op {
		case "+":
			return add(l, r, 1)
		case "-":
			return add(l, r, -1)
		case "*":
			return a.mulval(l, r)
		case "/":
			if l.known() && r.known() {
				a.observe(r)
				if r.val != 0 {
					return &aval{val: l.val / r.val, deps: l.deps | r.deps}
				}
			}
			return &aval{dataDep: l.dataDep || r.dataDep || len(l.coeffs) > 0}
		case "%":
			if l.known() && r.known() {
				a.observe(r)
				if r.val != 0 {
					return &aval{val: l.val % r.val, deps: l.deps | r.deps}
				}
			}
			return &aval{dataDep: true}
		case "<", "<=", ">", ">=", "==", "!=":
			out := &aval{}
			// Comparisons against loop/lane affine values are structured
			// control (boundary guards); data dependence taints.
			out.dataDep = l.dataDep || r.dataDep
			return out
		case "&&", "||":
			return &aval{dataDep: l.dataDep || r.dataDep}
		default: // bit ops
			if l.known() && r.known() {
				deps := l.deps | r.deps
				switch v.Op {
				case "<<":
					return &aval{val: l.val << uint(r.val&63), deps: deps}
				case ">>":
					return &aval{val: l.val >> uint(r.val&63), deps: deps}
				case "&":
					return &aval{val: l.val & r.val, deps: deps}
				case "|":
					return &aval{val: l.val | r.val, deps: deps}
				case "^":
					return &aval{val: l.val ^ r.val, deps: deps}
				}
			}
			return &aval{dataDep: l.dataDep || r.dataDep || len(l.coeffs)+len(r.coeffs) > 0}
		}
	case *mcpl.Index:
		a.access(v, env, c, false)
		return unknown() // loaded data is data-dependent
	case *mcpl.Call:
		args := make([]*aval, len(v.Args))
		for i, ar := range v.Args {
			args[i] = a.eval(ar, env, c)
		}
		if fl, ok := builtinFlops[v.Name]; ok {
			a.flops(fl, c)
			return unknown()
		}
		f := a.prog.Func(v.Name)
		if f == nil || c.depth > 6 {
			if c.depth > 6 {
				a.warn("%v: call to %s exceeds inline depth; cost underestimated", v.Pos, v.Name)
			}
			return unknown()
		}
		cc := c
		cc.depth++
		inner := map[string]*aval{}
		for i, prm := range f.Params {
			if prm.Type.IsArray() {
				// Map the callee array name to the caller's array metadata.
				if id, ok := v.Args[i].(*mcpl.Ident); ok {
					a.spaces[prm.Name] = a.spaces[id.Name]
					a.dims[prm.Name] = a.dims[id.Name]
				}
				continue
			}
			inner[prm.Name] = args[i]
		}
		a.block(f.Body, inner, cc)
		return unknown()
	default:
		return unknown()
	}
}
