package apps

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
)

// TestEveryKernelCompilesForEveryLeaf pushes all four applications' kernel
// sets (both variants) through the full MCL pipeline — most-specific
// version selection, level validation, translation, OpenCL emission, cost
// analysis and launch-glue computation — for each of the seven accelerator
// leaves. This is the breadth guarantee behind "scalable development of
// optimized kernels" (Sec. IV).
// matrixApp is one application's kernel sets plus representative launch
// parameters.
type matrixApp struct {
	kernels func(Variant) (*codegen.KernelSet, error)
	params  map[string]int64
}

var kernelMatrix = map[string]matrixApp{
	"raytrace": {RaytracerKernels, map[string]int64{
		"w": 1024, "h": 512, "y0": 0, "rows": 8, "samples": 10, "ns": 8, "seed0": 1}},
	"matmul": {MatmulKernels, map[string]int64{"n": 256, "m": 256, "p": 512}},
	"kmeans": {KMeansKernels, map[string]int64{"n": 4096, "k": 256, "d": 4}},
	"nbody":  {NBodyKernels, map[string]int64{"nloc": 1024, "off": 0, "n": 8192}},
}

func TestEveryKernelCompilesForEveryLeaf(t *testing.T) {
	h := hdl.Library()
	for name, a := range kernelMatrix {
		for _, variant := range []Variant{CashmereUnoptimized, CashmereOptimized} {
			ks, err := a.kernels(variant)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, variant, err)
			}
			for _, leaf := range hdl.AcceleratorLeaves {
				c, err := ks.Compile(leaf, h)
				if err != nil {
					t.Fatalf("%s/%v on %s: compile: %v", name, variant, leaf, err)
				}
				if !strings.Contains(c.OpenCL, "__kernel") {
					t.Fatalf("%s on %s: no kernel in generated code", name, leaf)
				}
				cost, err := c.Cost(a.params)
				if err != nil {
					t.Fatalf("%s/%v on %s: cost: %v", name, variant, leaf, err)
				}
				if !cost.Valid() || cost.Flops <= 0 {
					t.Fatalf("%s on %s: bad cost %+v", name, leaf, cost)
				}
				spec, _ := device.Lookup(leaf)
				if gf := spec.GFLOPS(cost); gf <= 0 || gf > spec.PeakSPFlops/1e9 {
					t.Fatalf("%s on %s: implausible %f GFLOPS", name, leaf, gf)
				}
				glue, err := c.LaunchConfig(a.params)
				if err != nil {
					t.Fatalf("%s/%v on %s: glue: %v", name, variant, leaf, err)
				}
				if glue.Items() <= 0 {
					t.Fatalf("%s on %s: empty launch config", name, leaf)
				}
			}
		}
	}
}

// TestCostDepsSoundAcrossKernelMatrix checks the cost memo's key on every
// kernel version x device leaf, with and without geometry cost: changing a
// scalar parameter outside the reported dependencies changes neither the
// analysis report nor the cost, and every parameter a foreach bound reads
// is a dependency. The per-leaf parameters the memo exists for (raytracer's
// first row and seed, n-body's offset) stay out of the key.
func TestCostDepsSoundAcrossKernelMatrix(t *testing.T) {
	h := hdl.Library()
	perLeaf := map[string][]string{"raytrace": {"y0", "seed0"}, "nbody": {"off"}}
	for name, a := range kernelMatrix {
		for _, variant := range []Variant{CashmereUnoptimized, CashmereOptimized} {
			ks, err := a.kernels(variant)
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range hdl.AcceleratorLeaves {
				for _, geom := range []bool{false, true} {
					c, err := ks.Compile(leaf, h)
					if err != nil {
						t.Fatal(err)
					}
					if geom {
						c.EnableGeometryCost()
					}
					where := fmt.Sprintf("%s/%v/%s/geometry=%v", name, variant, leaf, geom)
					rep, err := c.Analyze(a.params)
					if err != nil {
						t.Fatal(err)
					}
					cost, deps, err := c.CostDeps(a.params)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.IsSorted(deps) || len(deps) == 0 {
						t.Fatalf("%s: deps %v", where, deps)
					}
					for _, p := range perLeaf[name] {
						if slices.Contains(deps, p) {
							t.Errorf("%s: per-leaf parameter %s in deps %v", where, p, deps)
						}
					}
					for _, p := range foreachBoundParams(ks.Versions[c.SourceLevel], ks.Name) {
						if !slices.Contains(rep.Deps, p) {
							t.Errorf("%s: foreach bound parameter %s missing from Deps %v", where, p, rep.Deps)
						}
					}
					for p, v := range a.params {
						if slices.Contains(deps, p) {
							continue
						}
						for _, nv := range []int64{v + 1, 3*v + 17, v + 4096} {
							q := maps.Clone(a.params)
							q[p] = nv
							rep2, err := c.Analyze(q)
							if err != nil {
								t.Fatal(err)
							}
							cost2, err := c.Cost(q)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(rep, rep2) || cost != cost2 {
								t.Fatalf("%s: %s=%d -> %d changed the cost but is not in deps %v", where, p, v, nv, deps)
							}
						}
					}
				}
			}
		}
	}
}

// foreachBoundParams lists the kernel parameters read by any foreach bound.
func foreachBoundParams(prog *mcpl.Program, kernel string) []string {
	f := prog.Kernel(kernel)
	params := map[string]bool{}
	for _, prm := range f.Params {
		params[prm.Name] = true
	}
	var out []string
	var expr func(x mcpl.Expr)
	expr = func(x mcpl.Expr) {
		switch v := x.(type) {
		case *mcpl.Ident:
			if params[v.Name] && !slices.Contains(out, v.Name) {
				out = append(out, v.Name)
			}
		case *mcpl.Binary:
			expr(v.L)
			expr(v.R)
		case *mcpl.Unary:
			expr(v.X)
		case *mcpl.Cast:
			expr(v.X)
		}
	}
	var stmts func(ss []mcpl.Stmt)
	stmts = func(ss []mcpl.Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *mcpl.Foreach:
				expr(st.Bound)
				stmts(st.Body.Stmts)
			case *mcpl.Block:
				stmts(st.Stmts)
			case *mcpl.If:
				stmts(st.Then.Stmts)
				if st.Else != nil {
					stmts([]mcpl.Stmt{st.Else})
				}
			case *mcpl.For:
				stmts(st.Body.Stmts)
			case *mcpl.While:
				stmts(st.Body.Stmts)
			}
		}
	}
	stmts(f.Body.Stmts)
	return out
}

// TestKernelSelectionMatrix verifies the Sec. III-A selection rule across
// the optimized sets: NVIDIA and AMD leaves get the gpu-level kernels, the
// Xeon Phi gets its mic version where one exists and otherwise falls back
// to perfect.
func TestKernelSelectionMatrix(t *testing.T) {
	h := hdl.Library()
	cases := []struct {
		app      func(Variant) (*codegen.KernelSet, error)
		leaf     string
		expected string
	}{
		{MatmulKernels, "gtx480", "gpu"},
		{MatmulKernels, "hd7970", "gpu"},
		{MatmulKernels, "xeon_phi", "perfect"},
		{KMeansKernels, "k20", "gpu"},
		{KMeansKernels, "xeon_phi", "mic"},
		{NBodyKernels, "titan", "gpu"},
		{NBodyKernels, "xeon_phi", "perfect"},
	}
	for _, tc := range cases {
		ks, err := tc.app(CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ks.Compile(tc.leaf, h)
		if err != nil {
			t.Fatal(err)
		}
		if c.SourceLevel != tc.expected {
			t.Errorf("%s on %s selected level %s, want %s", ks.Name, tc.leaf, c.SourceLevel, tc.expected)
		}
	}
}
