package closure_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/mcl/closure"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

// diffCase is one kernel plus an argument builder. build must return a
// fresh, fully independent argument list on every call so the two engines
// never share output (or mutated input) buffers.
type diffCase struct {
	name   string
	src    string
	kernel string
	build  func(r *rand.Rand) []any
}

func randFloats(r *rand.Rand, dims ...int) *interp.Array {
	a := interp.NewFloatArray(dims...)
	for i := range a.F {
		a.F[i] = r.Float64()*2 - 1
	}
	return a
}

// diffCases covers every app kernel at every optimization level, including
// the barrier/local-memory tiled variants, plus the edge cases of the leaf
// lowering: counted loops whose bound or variable the body reassigns, `<=`
// and literal bounds, zero-trip loops, int variables widened into float
// operands and leaves in a helper function's frame.
func diffCases() []diffCase {
	scene := func() *interp.Array { return apps.CornellScene() }
	ints := func(n int) func(*rand.Rand) []any {
		return func(*rand.Rand) []any { return []any{n, interp.NewIntArray(n)} }
	}
	return []diffCase{
		{
			name: "leaf/bound-reassigned", kernel: "k", build: ints(6),
			src: `perfect void k(int n, int[n] out) {
  foreach (int i in n threads) {
    int b = i + 3;
    int acc = 0;
    for (int j = 0; j < b; j++) {
      acc += j * 10 + b;
      if (j == 1) { b = b - 2; }
    }
    out[i] = acc;
  }
}`,
		},
		{
			name: "leaf/var-reassigned", kernel: "k", build: ints(6),
			src: `perfect void k(int n, int[n] out) {
  foreach (int i in n threads) {
    int acc = 0;
    for (int j = 0; j < n; j++) {
      if (j == i) { j = j + 2; }
      acc += j;
    }
    out[i] = acc;
  }
}`,
		},
		{
			name: "leaf/le-and-literal-bounds", kernel: "k", build: ints(5),
			src: `perfect void k(int n, int[n] out) {
  foreach (int i in n threads) {
    int acc = 0;
    for (int j = 1; j <= i; j++) { acc += j; }
    for (int j = 0; j < 7; j += 3) { acc = acc * 2 + j; }
    for (int j = 0; j <= 4; j++) { acc -= 1; }
    for (int j = 9; j < 12; j -= -1) { acc += j; }
    out[i] = acc;
  }
}`,
		},
		{
			name: "leaf/zero-trip", kernel: "k", build: ints(4),
			src: `perfect void k(int n, int[n] out) {
  foreach (int i in n threads) {
    int acc = i;
    for (int j = 5; j < 3; j++) { acc += 100; }
    for (int j = 0; j <= 0 - 1; j++) { acc += 1000; }
    for (int j = i; j < i; j++) { acc += 10000; }
    out[i] = acc;
  }
}`,
		},
		{
			name: "leaf/int-widened", kernel: "k",
			src: `perfect void k(int n, float[n] xs, float[n] out) {
  foreach (int i in n threads) {
    float h = 0.5;
    float x = i * h + xs[i];
    x += i;
    x = (float)i - x;
    out[i] = x * i + 3;
  }
}`,
			build: func(r *rand.Rand) []any { return []any{5, randFloats(r, 5), interp.NewFloatArray(5)} },
		},
		{
			name: "leaf/helper-frame", kernel: "k",
			src: `float dot(int d, int m, int row, float[m, d] a, float[d] b) {
  float s = 0.0;
  for (int j = 0; j < d; j++) {
    s += a[row, j] * b[j];
  }
  return s - b[0];
}
perfect void k(int n, int d, float[n, d] a, float[d] b, float[n] out) {
  foreach (int i in n threads) {
    out[i] = dot(d, n, i, a, b);
  }
}`,
			build: func(r *rand.Rand) []any {
				n, d := 6, 3
				return []any{n, d, randFloats(r, n, d), randFloats(r, d), interp.NewFloatArray(n)}
			},
		},
		{
			name: "matmul/perfect", src: apps.MatmulPerfect, kernel: "matmul",
			build: func(r *rand.Rand) []any {
				n, m, p := 24, 40, 32
				return []any{n, m, p,
					interp.NewFloatArray(n, m), randFloats(r, n, p), randFloats(r, p, m)}
			},
		},
		{
			name: "matmul/gpu", src: apps.MatmulGPU, kernel: "matmul",
			build: func(r *rand.Rand) []any {
				n, m, p := 32, 48, 32 // multiples of 16 for the tiled version
				return []any{n, m, p,
					interp.NewFloatArray(n, m), randFloats(r, n, p), randFloats(r, p, m)}
			},
		},
		{
			name: "kmeans/perfect", src: apps.KMeansPerfect, kernel: "kmeans",
			build: func(r *rand.Rand) []any {
				n, k, d := 150, 7, 4
				return []any{n, k, d,
					randFloats(r, n, d), randFloats(r, k, d), interp.NewIntArray(n)}
			},
		},
		{
			name: "kmeans/gpu", src: apps.KMeansGPU, kernel: "kmeans",
			build: func(r *rand.Rand) []any {
				n, k, d := 512, 256, 4 // n, k multiples of 256 for the tiled version
				return []any{n, k, d,
					randFloats(r, d, n), randFloats(r, k, d), interp.NewIntArray(n)}
			},
		},
		{
			name: "kmeans/mic", src: apps.KMeansMIC, kernel: "kmeans",
			build: func(r *rand.Rand) []any {
				n, k, d := 64, 9, 4 // n multiple of 16 for the vectorized version
				return []any{n, k, d,
					randFloats(r, d, n), randFloats(r, k, d), interp.NewIntArray(n)}
			},
		},
		{
			name: "nbody/perfect", src: apps.NBodyPerfect, kernel: "nbody",
			build: func(r *rand.Rand) []any {
				nloc, off, n := 48, 16, 96
				return []any{nloc, off, n,
					randFloats(r, n, 4), interp.NewFloatArray(nloc, 3)}
			},
		},
		{
			name: "nbody/gpu", src: apps.NBodyGPU, kernel: "nbody",
			build: func(r *rand.Rand) []any {
				nloc, off, n := 256, 0, 256 // multiples of 256 for the tiled version
				return []any{nloc, off, n,
					randFloats(r, n, 4), interp.NewFloatArray(nloc, 3)}
			},
		},
		{
			name: "raytracer/perfect", src: apps.RaytracerPerfect, kernel: "raytrace",
			build: func(r *rand.Rand) []any {
				w, h, y0, rows, samples := 8, 8, 4, 4, 2
				sc := scene()
				return []any{w, h, y0, rows, samples, sc.Dims[0], 12345,
					sc, interp.NewFloatArray(rows, w, 3)}
			},
		},
	}
}

// TestDifferentialEngines runs every app kernel through both engines on
// identical inputs and requires matching results: exact for int arrays,
// within 1e-9 for float arrays.
func TestDifferentialEngines(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := mcpl.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := mcpl.Check(prog); err != nil {
				t.Fatalf("check: %v", err)
			}
			k, err := closure.Compile(prog, tc.kernel)
			if err != nil {
				t.Fatalf("closure compile: %v", err)
			}

			ref := tc.build(rand.New(rand.NewSource(7)))
			got := tc.build(rand.New(rand.NewSource(7)))
			if err := interp.Run(prog, tc.kernel, ref...); err != nil {
				t.Fatalf("interp run: %v", err)
			}
			if err := k.Run(got...); err != nil {
				t.Fatalf("closure run: %v", err)
			}
			for i := range ref {
				ra, ok := ref[i].(*interp.Array)
				if !ok {
					continue
				}
				ga := got[i].(*interp.Array)
				if err := compareArrays(ra, ga); err != nil {
					t.Errorf("argument %d: %v", i, err)
				}
			}
		})
	}
}

func compareArrays(ref, got *interp.Array) error {
	if ref.Kind == mcpl.KindInt {
		for i := range ref.I {
			if ref.I[i] != got.I[i] {
				return fmt.Errorf("int element %d: interp %d, closure %d", i, ref.I[i], got.I[i])
			}
		}
		return nil
	}
	for i := range ref.F {
		if d := math.Abs(ref.F[i] - got.F[i]); d > 1e-9 {
			return fmt.Errorf("float element %d: interp %v, closure %v (diff %v)", i, ref.F[i], got.F[i], d)
		}
	}
	return nil
}

// TestDifferentialRepeatedRuns reruns one compiled kernel many times to
// exercise the frame pool and worker reuse: pooled state must never leak
// between launches.
func TestDifferentialRepeatedRuns(t *testing.T) {
	prog, err := mcpl.Parse(apps.MatmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcpl.Check(prog); err != nil {
		t.Fatal(err)
	}
	k, err := closure.Compile(prog, "matmul")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		r := rand.New(rand.NewSource(int64(round)))
		n, m, p := 16, 16, 32
		a, b := randFloats(r, n, p), randFloats(r, p, m)
		cRef := interp.NewFloatArray(n, m)
		cGot := interp.NewFloatArray(n, m)
		if err := interp.Run(prog, "matmul", n, m, p, cRef, a, b); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(n, m, p, cGot, a, b); err != nil {
			t.Fatal(err)
		}
		if err := compareArrays(cRef, cGot); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
