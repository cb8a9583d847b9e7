package closure_test

import (
	"fmt"
	"math"
	"testing"

	"cashmere/internal/mcl/closure"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

// fuzzKernel is the loop/index template FuzzClosureMatchesInterp fills: a
// for loop with a fuzzed start, bound (a scalar parameter or a literal),
// step and comparison, whose body reads a 2-D and a 1-D array at fuzzed
// index offsets, so that some programs index out of range.
const fuzzKernel = `perfect void k(int n, int m, int lim, float[n, m] a, float[m] v, float[n] out, int[n] cnt) {
  foreach (int i in n threads) {
    float acc = 1.0;
    int trips = 0;
    for (int j = %d; j %s %s; j += %d) {
      int r = i + %d;
      int c = j + %d;
      acc = acc %s a[r, c];
      if (acc %s v[c]) { trips += 2; }
      acc = v[c] %s acc;
      trips++;
    }
    out[i] = acc;
    cnt[i] = trips;
  }
}`

// FuzzClosureMatchesInterp fills fuzzKernel from the fuzz inputs and
// requires the closure engine and the interpreter to fail together or to
// succeed with identical output arrays. Programs that do not check are
// skipped. The seed corpus is in testdata/fuzz/FuzzClosureMatchesInterp.
func FuzzClosureMatchesInterp(f *testing.F) {
	f.Fuzz(func(t *testing.T, start, bound int8, step uint8, slotBound bool, op uint8, le bool, n, m uint8, off0, off1 int8) {
		ops := []string{"+", "-", "*", "/"}
		cmps := []string{"<", "<=", ">", ">=", "==", "!="}
		cmp, bnd := "<", fmt.Sprint(bound)
		if le {
			cmp = "<="
		}
		if slotBound {
			bnd = "lim"
		}
		src := fmt.Sprintf(fuzzKernel, start, cmp, bnd, 1+step%4, off0%3, off1%3,
			ops[op%4], cmps[(op/4)%6], ops[(op/24)%4])
		prog, err := mcpl.Parse(src)
		if err != nil {
			t.Skip()
		}
		info, err := mcpl.Check(prog)
		if err != nil {
			t.Skip()
		}
		k, err := closure.Compile(info, "k")
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		rows, cols := 1+int(n%5), 1+int(m%6)
		args := func() []any {
			a, v := mcpl.NewFloatArray(rows, cols), mcpl.NewFloatArray(cols)
			for i := range a.F {
				a.F[i] = float64(i%7) - 2.5
			}
			for i := range v.F {
				v.F[i] = 0.5 * float64(i+1)
			}
			return []any{rows, cols, int(bound), a, v, mcpl.NewFloatArray(rows), mcpl.NewIntArray(rows)}
		}
		ref, got := args(), args()
		ierr := interp.Run(prog, "k", ref...)
		cerr := k.Run(got...)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("interp err = %v, closure err = %v\n%s", ierr, cerr, src)
		}
		if ierr != nil {
			return
		}
		for i := range ref {
			ra, ok := ref[i].(*mcpl.Array)
			if !ok {
				continue
			}
			ga := got[i].(*mcpl.Array)
			for j := range ra.I {
				if ra.I[j] != ga.I[j] {
					t.Fatalf("argument %d int element %d: interp %d, closure %d\n%s", i, j, ra.I[j], ga.I[j], src)
				}
			}
			for j := range ra.F {
				x, y := ra.F[j], ga.F[j]
				if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
					t.Fatalf("argument %d float element %d: interp %v, closure %v\n%s", i, j, x, y, src)
				}
			}
		}
	})
}

// FuzzCheckedProgramCompiles feeds MCPL source text through Parse, Check
// and Compile of every kernel. Parse and Check must not panic, and every
// program that checks must compile: Compile panics on a construct the
// checker should have rejected. The seed corpus in
// testdata/fuzz/FuzzCheckedProgramCompiles holds the app and example
// kernels and the programs of the checker's rejection table.
func FuzzCheckedProgramCompiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := mcpl.Parse(src)
		if err != nil {
			return
		}
		info, err := mcpl.Check(prog)
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			if !fn.IsKernel() {
				continue
			}
			if _, err := closure.Compile(info, fn.Name); err != nil {
				t.Fatalf("compile %s: %v\n%s", fn.Name, err, src)
			}
		}
	})
}
