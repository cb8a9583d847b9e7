package codegen

import (
	"reflect"
	"slices"
	"testing"

	"cashmere/internal/mcl/hdl"
)

// A warm Compiled.Cost reuses the kernel set's type check: NewKernelSet
// checks each version once and no launch checks again.
func TestCostDoesNotRecheck(t *testing.T) {
	before := checkCalls.Load()
	ks, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkCalls.Load() - before; got != 2 {
		t.Fatalf("NewKernelSet ran %d checks for 2 versions", got)
	}
	c, err := ks.Compile("gtx480", hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	before = checkCalls.Load()
	for n := int64(64); n <= 1024; n *= 2 {
		params := map[string]int64{"n": n, "m": n, "p": n}
		if _, err := c.Cost(params); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Analyze(params); err != nil {
			t.Fatal(err)
		}
	}
	if got := checkCalls.Load() - before; got != 0 {
		t.Fatalf("launches ran %d type checks", got)
	}
}

// checkDepsSound asserts that perturbing any parameter outside the report's
// Deps leaves the report unchanged, and returns the deps.
func checkDepsSound(t *testing.T, src, kernel string, params map[string]int64) []string {
	t.Helper()
	prog := mustProg(t, src)
	base, err := Analyze(prog, kernel, params, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range params {
		if slices.Contains(base.Deps, name) {
			continue
		}
		for _, nv := range []int64{v + 1, 3*v + 17, 0} {
			p := map[string]int64{}
			for k, x := range params {
				p[k] = x
			}
			p[name] = nv
			got, err := Analyze(prog, kernel, p, 32)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: %s=%d -> %d changed the report but is not in Deps %v", kernel, name, v, nv, base.Deps)
			}
		}
	}
	return base.Deps
}

func TestReportDeps(t *testing.T) {
	cases := []struct {
		name, src string
		params    map[string]int64
		want      []string
	}{
		{"matmul", matmulPerfect, map[string]int64{"n": 64, "m": 32, "p": 16}, []string{"m", "n", "p"}},
		// off only shifts values: never a trip count, dimension or stride.
		{"shift", `perfect void shift(int n, int off, int seed, float[n] a) {
  foreach (int i in n threads) {
    int[1] s;
    s[0] = ((off + i) * 9781 + seed) & 1023;
    a[i] = a[i] + (float)(off + i);
  }
}`, map[string]int64{"n": 256, "off": 512, "seed": 7}, []string{"n"}},
		// The stride factor s decides coalesced vs strided.
		{"stride", `perfect void stride(int n, int s, float[n] a, float[n] b) {
  foreach (int i in n threads) {
    b[i] = a[i * s];
  }
}`, map[string]int64{"n": 256, "s": 1}, []string{"n", "s"}},
		// The divisor test reads d; the t == f test of ?: reads both arms,
		// but not the condition's k.
		{"cond", `perfect void cond(int n, int d, int m, int k, float[n] a) {
  foreach (int i in (k > 0 ? n : m) / d threads) {
    a[i] = 0.0;
  }
}`, map[string]int64{"n": 256, "d": 4, "m": 256, "k": 1}, []string{"d", "m", "n"}},
		// @expect and the local-array dimension both decide the report.
		// A global dimension sets the stride even when nothing else reads it.
		{"dim", `perfect void dim(int n, int w, float[64,w] a) {
  foreach (int i in n threads) {
    a[i, 0] = 0.0;
  }
}`, map[string]int64{"n": 64, "w": 1}, []string{"n", "w"}},
		// A zero divisor decides too: the quotient is then no constant.
		{"div", `perfect void div(int n, int d, float[64] a) {
  int q = n / d;
  foreach (int i in q threads) {
    a[0] = 0.0;
  }
}`, map[string]int64{"n": 64, "d": 0}, []string{"d"}},
		{"mod", `perfect void mod(int n, int d, float[64] a) {
  int q = n % d;
  foreach (int i in q threads) {
    a[0] = 0.0;
  }
}`, map[string]int64{"n": 64, "d": 0}, []string{"d"}},
		// The for-loop step sets the trip count.
		{"step", `perfect void step(int n, int s, float[n] a) {
  foreach (int i in n threads) {
    for (int j = 0; j < 64; j += s) {
      a[i] += 1.0;
    }
  }
}`, map[string]int64{"n": 64, "s": 4}, []string{"n", "s"}},
		{"tiled", `gpu void tiled(int n, int t, int r, float[n] a) {
  foreach (int b in n / 64 blocks) {
    local float[t] tile;
    foreach (int i in 64 threads) {
      @expect(r) while (a[b * 64 + i] > 0.0) {
        a[b * 64 + i] = a[b * 64 + i] - 1.0;
      }
    }
  }
}`, map[string]int64{"n": 4096, "t": 64, "r": 3}, []string{"n", "r", "t"}},
	}
	// Every operator carries its operands' dependencies into the extent.
	for _, bound := range []string{"a + b", "a - b", "a * b", "a / b", "a % b",
		"a << b", "a >> b", "a & b", "a | b", "a ^ b", "-a + b", "(b > 0 ? a : a) + b"} {
		cases = append(cases, struct {
			name, src string
			params    map[string]int64
			want      []string
		}{"op", `perfect void op(int a, int b, float[64] x) {
  foreach (int i in ` + bound + ` threads) {
    x[0] = 1.0;
  }
}`, map[string]int64{"a": 45, "b": 3}, []string{"a", "b"}})
	}
	for _, tc := range cases {
		got := checkDepsSound(t, tc.src, tc.name, tc.params)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: Deps = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// With geometry cost on, CostDeps covers the launch-nest bound identifiers
// LaunchConfig reads.
func TestCostDepsGeometry(t *testing.T) {
	ks, err := NewKernelSet("matmul", matmulPerfect)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ks.Compile("gtx480", hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableGeometryCost()
	_, deps, err := c.CostDeps(map[string]int64{"n": 64, "m": 64, "p": 64})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(deps, []string{"m", "n", "p"}) {
		t.Fatalf("deps = %v", deps)
	}
	if got := c.IntParams(); !slices.Equal(got, []string{"n", "m", "p"}) {
		t.Fatalf("IntParams = %v", got)
	}
}
