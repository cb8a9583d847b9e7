package interp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cashmere/internal/mcl/mcpl"
)

func checked(t *testing.T, src string) *mcpl.Program {
	t.Helper()
	prog, err := mcpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcpl.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

const matmulSrc = `
perfect void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
`

func TestMatmulAgainstReference(t *testing.T) {
	prog := checked(t, matmulSrc)
	const n, m, p = 7, 5, 9
	a := mcpl.NewFloatArray(n, p)
	b := mcpl.NewFloatArray(p, m)
	c := mcpl.NewFloatArray(n, m)
	rng := rand.New(rand.NewSource(11))
	for i := range a.F {
		a.F[i] = rng.Float64()
	}
	for i := range b.F {
		b.F[i] = rng.Float64()
	}
	if err := Run(prog, "matmul", int64(n), int64(m), int64(p), c, a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			want := 0.0
			for k := 0; k < p; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-12 {
				t.Fatalf("c[%d,%d] = %v, want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

// Property: matmul with identity B returns A.
func TestMatmulIdentityProperty(t *testing.T) {
	prog := checked(t, matmulSrc)
	f := func(seed int64) bool {
		const n = 6
		rng := rand.New(rand.NewSource(seed))
		a := mcpl.NewFloatArray(n, n)
		for i := range a.F {
			a.F[i] = rng.Float64()
		}
		b := mcpl.NewFloatArray(n, n)
		for i := 0; i < n; i++ {
			b.Set(1, i, i)
		}
		c := mcpl.NewFloatArray(n, n)
		if err := Run(prog, "matmul", int64(n), int64(n), int64(n), c, a, b); err != nil {
			return false
		}
		for i := range a.F {
			if math.Abs(c.F[i]-a.F[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHelperFunctionsAndBuiltins(t *testing.T) {
	prog := checked(t, `
float hypot2(float x, float y) { return sqrt(x * x + y * y); }
int collatz(int n) {
  int steps = 0;
  @expect(20) while (n != 1) {
    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps++;
  }
  return steps;
}
`)
	v, err := RunFunc(prog, "hypot2", 3.0, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 5.0 {
		t.Fatalf("hypot2 = %v", v)
	}
	v, err = RunFunc(prog, "collatz", int64(6))
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 8 {
		t.Fatalf("collatz(6) = %v, want 8", v)
	}
}

func TestIntOpsAndBitwise(t *testing.T) {
	prog := checked(t, `
int mix(int x) {
  int y = (x << 13) ^ x;
  y = (y >> 7) ^ y;
  y = (y << 17) ^ y;
  return y & 1073741823;
}
`)
	v, err := RunFunc(prog, "mix", int64(12345))
	if err != nil {
		t.Fatal(err)
	}
	x := int64(12345)
	y := (x << 13) ^ x
	y = (y >> 7) ^ y
	y = (y << 17) ^ y
	y &= 1073741823
	if v.(int64) != y {
		t.Fatalf("mix = %v, want %v", v, y)
	}
}

func TestTernaryAndCasts(t *testing.T) {
	prog := checked(t, `
int f(float x) { return x > 0.5 ? (int)(x * 10.0) : -1; }
`)
	v, _ := RunFunc(prog, "f", 0.73)
	if v.(int64) != 7 {
		t.Fatalf("f(0.73) = %v", v)
	}
	v, _ = RunFunc(prog, "f", 0.2)
	if v.(int64) != -1 {
		t.Fatalf("f(0.2) = %v", v)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// Division by zero on the right of && must not be evaluated.
	prog := checked(t, `
int f(int x) {
  if (x != 0 && 100 / x > 5) { return 1; }
  return 0;
}
`)
	v, err := RunFunc(prog, "f", int64(0))
	if err != nil {
		t.Fatalf("short-circuit failed: %v", err)
	}
	if v.(int64) != 0 {
		t.Fatalf("f(0) = %v", v)
	}
}

func TestRuntimeErrors(t *testing.T) {
	outOfRange := checked(t, `
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) { a[i + 1] = 0.0; }
}
`)
	a := mcpl.NewFloatArray(4)
	err := Run(outOfRange, "k", int64(4), a)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}

	div := checked(t, `int f(int x) { return 1 / x; }`)
	if _, err := RunFunc(div, "f", int64(0)); err == nil {
		t.Fatal("integer division by zero not reported")
	}

	prog := checked(t, matmulSrc)
	// Dimension mismatch: c is 3x3 but n,m say 4,4.
	err = Run(prog, "matmul", int64(4), int64(4), int64(3),
		mcpl.NewFloatArray(3, 3), mcpl.NewFloatArray(4, 3), mcpl.NewFloatArray(3, 4))
	if err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("dim mismatch err = %v", err)
	}

	if err := Run(prog, "nosuch"); err == nil {
		t.Fatal("missing kernel not reported")
	}
	if err := Run(prog, "matmul", int64(1)); err == nil {
		t.Fatal("arity mismatch not reported")
	}
}

func TestBarrierTilingKernel(t *testing.T) {
	// A reversal through local memory: thread t writes slot t, then after
	// the barrier reads slot (ts-1-t). Without real barrier semantics the
	// reads would see zeros.
	prog := checked(t, `
gpu void rev(int nb, int ts, float[nb,ts] a) {
  foreach (int b in nb blocks) {
    local float[ts] tile;
    foreach (int t in ts threads) {
      tile[t] = a[b,t];
      barrier();
      a[b,t] = tile[ts - 1 - t];
    }
  }
}
`)
	const nb, ts = 4, 32
	a := mcpl.NewFloatArray(nb, ts)
	for b := 0; b < nb; b++ {
		for t0 := 0; t0 < ts; t0++ {
			a.Set(float64(b*100+t0), b, t0)
		}
	}
	if err := Run(prog, "rev", int64(nb), int64(ts), a); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nb; b++ {
		for t0 := 0; t0 < ts; t0++ {
			want := float64(b*100 + (ts - 1 - t0))
			if a.At(b, t0) != want {
				t.Fatalf("a[%d,%d] = %v, want %v", b, t0, a.At(b, t0), want)
			}
		}
	}
}

func TestBarrierMultiplePhases(t *testing.T) {
	// Tiled reduction with two barriers per round.
	prog := checked(t, `
gpu void reduce(int ts, float[ts] a, float[1] out) {
  foreach (int b in 1 blocks) {
    local float[ts] tile;
    foreach (int t in ts threads) {
      tile[t] = a[t];
      barrier();
      for (int s = ts / 2; s > 0; s = s / 2) {
        if (t < s) {
          tile[t] += tile[t + s];
        }
        barrier();
      }
      if (t == 0) { out[0] = tile[0]; }
    }
  }
}
`)
	const ts = 64
	a := mcpl.NewFloatArray(ts)
	want := 0.0
	for i := 0; i < ts; i++ {
		a.F[i] = float64(i)
		want += float64(i)
	}
	out := mcpl.NewFloatArray(1)
	if err := Run(prog, "reduce", int64(ts), a, out); err != nil {
		t.Fatal(err)
	}
	if out.At(0) != want {
		t.Fatalf("reduce = %v, want %v", out.At(0), want)
	}
}

func TestBarrierAbortOnError(t *testing.T) {
	// One thread faults before the barrier; others must not deadlock.
	prog := checked(t, `
gpu void bad(int ts, float[ts] a) {
  foreach (int b in 1 blocks) {
    foreach (int t in ts threads) {
      if (t == 3) {
        a[ts + 5] = 1.0;
      }
      barrier();
      a[t] = 1.0;
    }
  }
}
`)
	err := Run(prog, "bad", int64(8), mcpl.NewFloatArray(8))
	if err == nil {
		t.Fatal("faulting thread not reported")
	}
}

func TestForeachSequentialSemantics(t *testing.T) {
	prog := checked(t, `
perfect void iota(int n, int[n] a) {
  foreach (int i in n threads) { a[i] = i * i; }
}
`)
	a := mcpl.NewIntArray(10)
	if err := Run(prog, "iota", int64(10), a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if a.I[i] != int64(i*i) {
			t.Fatalf("a[%d] = %d", i, a.I[i])
		}
	}
}

func TestIncDecAndCompoundAssign(t *testing.T) {
	prog := checked(t, `
int f() {
  int x = 10;
  x++;
  x--;
  x += 5;
  x *= 2;
  x /= 3;
  x -= 1;
  x %= 7;
  return x;
}
`)
	v, err := RunFunc(prog, "f")
	if err != nil {
		t.Fatal(err)
	}
	x := 10
	x += 5
	x *= 2
	x /= 3
	x--
	x %= 7
	if v.(int64) != int64(x) {
		t.Fatalf("f = %v, want %d", v, x)
	}
}

func TestBuiltinMath(t *testing.T) {
	prog := checked(t, `
float f(float x) { return fmin(fmax(pow(x, 2.0), 0.1), 100.0) + floor(x) + fabs(-x); }
int g(int a, int b) { return min(a, b) + max(a, b) + abs(a - b); }
`)
	v, _ := RunFunc(prog, "f", 3.0)
	want := math.Min(math.Max(9, 0.1), 100) + 3 + 3
	if math.Abs(v.(float64)-want) > 1e-12 {
		t.Fatalf("f = %v, want %v", v, want)
	}
	v, _ = RunFunc(prog, "g", int64(3), int64(8))
	if v.(int64) != 3+8+5 {
		t.Fatalf("g = %v", v)
	}
}

func TestLocalArrayZeroInitialized(t *testing.T) {
	prog := checked(t, `
perfect void k(int n, float[n] out) {
  foreach (int i in n threads) {
    float[4] tmp;
    out[i] = tmp[0] + tmp[3];
  }
}
`)
	out := mcpl.NewFloatArray(3)
	out.F[0] = 99
	if err := Run(prog, "k", int64(3), out); err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 0 {
		t.Fatalf("local array not zeroed: %v", out.F[0])
	}
}
