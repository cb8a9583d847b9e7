package closure_test

import (
	"strings"
	"testing"

	"cashmere/internal/mcl/closure"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

func compile(t *testing.T, src, kernel string) *closure.Kernel {
	t.Helper()
	prog, err := mcpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := mcpl.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	k, err := closure.Compile(info, kernel)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return k
}

// TestSequentialReduction checks that barrier-free foreach shares the
// enclosing frame, so reductions into outer scalars accumulate.
func TestSequentialReduction(t *testing.T) {
	k := compile(t, `
perfect void sum(int n, float[n] xs, float[1] out) {
  float acc = 0.0;
  foreach (int i in n threads) {
    acc += xs[i];
  }
  out[0] = acc;
}
`, "sum")
	xs := mcpl.NewFloatArray(5)
	for i := range xs.F {
		xs.F[i] = float64(i + 1)
	}
	out := mcpl.NewFloatArray(1)
	if err := k.Run(5, xs, out); err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 15 {
		t.Fatalf("sum = %v, want 15", out.F[0])
	}
}

// TestHelperFunctions checks helper calls, including a recursive one and an
// array-mutating one (the raytracer's RNG idiom).
func TestHelperFunctions(t *testing.T) {
	k := compile(t, `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
float bump(float[1] state) {
  state[0] += 1.0;
  return state[0];
}
perfect void kern(int n, int[n] fibs, float[1] state, float[n] seen) {
  foreach (int i in n threads) {
    fibs[i] = fib(i);
    seen[i] = bump(state);
  }
}
`, "kern")
	fibs := mcpl.NewIntArray(8)
	state := mcpl.NewFloatArray(1)
	seen := mcpl.NewFloatArray(8)
	if err := k.Run(8, fibs, state, seen); err != nil {
		t.Fatal(err)
	}
	wantFib := []int64{0, 1, 1, 2, 3, 5, 8, 13}
	for i, w := range wantFib {
		if fibs.I[i] != w {
			t.Errorf("fib(%d) = %d, want %d", i, fibs.I[i], w)
		}
	}
	for i := range seen.F {
		if seen.F[i] != float64(i+1) {
			t.Errorf("seen[%d] = %v, want %v (helper must mutate shared array)", i, seen.F[i], i+1)
		}
	}
}

// TestRuntimeErrors checks that hot-path failures surface as ordinary
// errors, matching the interpreter's messages in spirit, and that the
// interpreter fails on the same input. The index cases pin the full message:
// a leaf index (slots and literals only, read inline) and a computed index
// at the same source position must report identical text.
func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, kernel, want string
		args                    []any
	}{
		{
			name: "index out of range",
			src: `perfect void k(int n, float[n] xs) {
  foreach (int i in n threads) { xs[i + 1] = 0.0; }
}`,
			kernel: "k", want: "out of range",
			args: []any{3, mcpl.NewFloatArray(3)},
		},
		{
			name: "division by zero",
			src: `perfect void k(int n, int[n] xs) {
  foreach (int i in n threads) { xs[i] = 1 / i; }
}`,
			kernel: "k", want: "division by zero",
			args: []any{3, mcpl.NewIntArray(3)},
		},
		{
			name: "dimension mismatch",
			src: `perfect void k(int n, float[n] xs) {
  foreach (int i in n threads) { xs[i] = 0.0; }
}`,
			kernel: "k", want: "dimension",
			args: []any{4, mcpl.NewFloatArray(3)},
		},
		{
			name: "leaf index out of range in dimension 0",
			src: `perfect void k(int n, float[n,2] xs, float[n] out) {
  foreach (int i in n threads) { int j = i + 1; out[i] = xs[j, 0]; }
}`,
			kernel: "k", want: "2:60: xs: index 3 out of range [0,3) in dimension 0",
			args: []any{3, mcpl.NewFloatArray(3, 2), mcpl.NewFloatArray(3)},
		},
		{
			name: "computed index out of range in dimension 0",
			src: `perfect void k(int n, float[n,2] xs, float[n] out) {
  foreach (int i in n threads) { int j = i + 0; out[i] = xs[j+1, 0]; }
}`,
			kernel: "k", want: "2:60: xs: index 3 out of range [0,3) in dimension 0",
			args: []any{3, mcpl.NewFloatArray(3, 2), mcpl.NewFloatArray(3)},
		},
		{
			name: "leaf index out of range in dimension 1",
			src: `perfect void k(int n, float[n,2] xs, float[n] out) {
  foreach (int i in n threads) { int j = i + 1; out[i] = xs[0, j]; }
}`,
			kernel: "k", want: "2:60: xs: index 2 out of range [0,2) in dimension 1",
			args: []any{3, mcpl.NewFloatArray(3, 2), mcpl.NewFloatArray(3)},
		},
		{
			name: "computed index out of range in dimension 1",
			src: `perfect void k(int n, float[n,2] xs, float[n] out) {
  foreach (int i in n threads) { int j = i + 0; out[i] = xs[0, j+1]; }
}`,
			kernel: "k", want: "2:60: xs: index 2 out of range [0,2) in dimension 1",
			args: []any{3, mcpl.NewFloatArray(3, 2), mcpl.NewFloatArray(3)},
		},
		{
			name: "negative leaf index",
			src: `perfect void k(int n, int[n,2] xs) {
  foreach (int i in n threads) { int j = i - 1; xs[j, 1] = i; }
}`,
			kernel: "k", want: "2:51: xs: index -1 out of range [0,3) in dimension 0",
			args: []any{3, mcpl.NewIntArray(3, 2)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := compile(t, tc.src, tc.kernel)
			err := k.Run(tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			prog, _ := mcpl.Parse(tc.src)
			if err := interp.Run(prog, tc.kernel, tc.args...); err == nil {
				t.Fatal("interp succeeded where closure failed")
			}
		})
	}
}

// TestParallelBarrierError checks that a failing thread aborts the whole
// work-group instead of deadlocking the barrier.
func TestParallelBarrierError(t *testing.T) {
	k := compile(t, `
perfect void k(int n, float[n] xs) {
  foreach (int i in n threads) {
    xs[i + n - 1] = 0.0;
    barrier();
    xs[i] = 1.0;
  }
}
`, "k")
	err := k.Run(4, mcpl.NewFloatArray(4))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want index error", err)
	}
}

// TestParallelPrivateScalars checks OpenCL work-group semantics: scalars
// declared inside a parallel foreach are thread-private, arrays declared
// outside (local memory) are shared across the group.
func TestParallelPrivateScalars(t *testing.T) {
	k := compile(t, `
perfect void k(int n, float[n] out) {
  float[1] shared;
  foreach (int i in n threads) {
    float mine = (float)i;
    if (i == 0) { shared[0] = 42.0; }
    barrier();
    out[i] = mine + shared[0];
  }
}
`, "k")
	out := mcpl.NewFloatArray(4)
	if err := k.Run(4, out); err != nil {
		t.Fatal(err)
	}
	for i := range out.F {
		if want := float64(i) + 42; out.F[i] != want {
			t.Errorf("out[%d] = %v, want %v", i, out.F[i], want)
		}
	}
}

// TestKernelNotFound checks the compile-time miss path.
func TestKernelNotFound(t *testing.T) {
	prog, err := mcpl.Parse(`perfect void k(int n) { foreach (int i in n threads) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := mcpl.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := closure.Compile(info, "missing"); err == nil {
		t.Fatal("want error for missing kernel")
	}
}
