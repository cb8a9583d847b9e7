package core

import (
	"slices"
	"testing"

	"cashmere/internal/mcl/codegen"
	"cashmere/internal/satin"
)

func TestCostCacheHitsOnRepeatedLaunches(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		for i := 0; i < 5; i++ {
			if err := k.NewLaunch(LaunchSpec{
				Params:  map[string]int64{"n": 1 << 16},
				InBytes: 4 << 16, OutBytes: 4 << 16,
			}).Run(ctx); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	hits, misses := cl.NodeState(0).CostCacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one evaluation per distinct params)", misses)
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4", hits)
	}
}

func TestCostCacheDistinguishesParams(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	c := ns.kernels["scale"][0]
	pa := map[string]int64{"n": 1 << 10}
	pb := map[string]int64{"n": 1 << 20}
	for i := 0; i < 2; i++ {
		ca, err := ns.kernelCost(c, pa)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := ns.kernelCost(c, pb)
		if err != nil {
			t.Fatal(err)
		}
		// The memoized values must match a direct evaluation, round after round.
		da, _ := c.Cost(pa)
		db, _ := c.Cost(pb)
		if ca != da || cb != db {
			t.Fatalf("cached cost diverged: %+v vs %+v / %+v vs %+v", ca, da, cb, db)
		}
	}
	if hits, misses := ns.CostCacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestCostCacheErrorsNotCached(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	c := ns.kernels["scale"][0]
	if _, err := ns.kernelCost(c, map[string]int64{}); err == nil {
		t.Fatal("missing parameter accepted")
	}
	if hits, misses := ns.CostCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("error path touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// offsetKernel's cost depends on n but not on off, the way a raytracer
// leaf's cost does not depend on its first row.
const offsetKernel = `
perfect void shift(int n, int off, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] + (float)(off + i);
  }
}
`

func offsetNode(t testing.TB) (*NodeState, *codegen.Compiled) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "shift", offsetKernel))
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	return ns, ns.kernels["shift"][0]
}

func TestCostCacheKeysOnDepsOnly(t *testing.T) {
	ns, c := offsetNode(t)
	for off := int64(0); off < 10; off++ {
		p := map[string]int64{"n": 1 << 12, "off": off * 4096}
		got, err := ns.kernelCost(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := c.Cost(p); got != want {
			t.Fatalf("off=%d: cached %+v, fresh %+v", off, got, want)
		}
	}
	if hits, misses := ns.CostCacheStats(); hits != 9 || misses != 1 {
		t.Fatalf("varying a non-dependency: hits=%d misses=%d, want 9/1", hits, misses)
	}
	if _, err := ns.kernelCost(c, map[string]int64{"n": 1 << 13, "off": 0}); err != nil {
		t.Fatal(err)
	}
	if _, misses := ns.CostCacheStats(); misses != 2 {
		t.Fatalf("a new n did not miss: misses=%d", misses)
	}
	if got := ns.costCache[c]; len(got.tables) != 1 || !slices.Equal(got.tables[0].deps, []string{"n"}) {
		t.Fatalf("tables = %+v, want one keyed on [n]", got.tables)
	}
}

// A zero divisor makes the dividend irrelevant, so the same kernel keys
// launches on different parameter sets; each set gets its own table.
func TestCostCacheTablePerDepSet(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "q", `
perfect void q(int n, int d, float[4096] a) {
  int m = n / d;
  foreach (int i in m threads) {
    a[i] = 1.0;
  }
}
`))
	cl.Run(func(ctx *satin.Context) any { return nil })
	ns := cl.NodeState(0)
	c := ns.kernels["q"][0]
	launches := []struct {
		n, d int64
		hit  bool
	}{{64, 0, false}, {128, 0, true}, {64, 2, false}, {64, 2, true}, {128, 2, false}, {7, 0, true}}
	for _, l := range launches {
		p := map[string]int64{"n": l.n, "d": l.d}
		h0, _ := ns.CostCacheStats()
		got, err := ns.kernelCost(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := c.Cost(p); got != want {
			t.Fatalf("%v: cached %+v, fresh %+v", p, got, want)
		}
		if h1, _ := ns.CostCacheStats(); (h1 > h0) != l.hit {
			t.Fatalf("%v: hit=%v, want %v", p, h1 > h0, l.hit)
		}
	}
	if n := len(ns.costCache[c].tables); n != 2 {
		t.Fatalf("%d tables, want 2", n)
	}
}

// A launch missing a parameter the cost does not depend on must still fail
// once a complete launch has filled the cache.
func TestCostCacheMissingParamNotServed(t *testing.T) {
	ns, c := offsetNode(t)
	if _, err := ns.kernelCost(c, map[string]int64{"n": 64, "off": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.kernelCost(c, map[string]int64{"n": 64}); err == nil {
		t.Fatal("launch without off served from the cache")
	}
}

// BenchmarkKernelCost compares the memoized lookup against a fresh
// evaluation — the per-launch saving. The memoized loop changes off, which
// the cost does not depend on, on every launch, as raytracer leaves change
// y0; make bench-allocs pins it at 0 allocs/op.
func BenchmarkKernelCost(b *testing.B) {
	ns, c := offsetNode(b)
	params := map[string]int64{"n": 1 << 20, "off": 0}

	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := ns.kernelCost(c, params); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			params["off"] = int64(i)
			if _, err := ns.kernelCost(c, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Cost(params); err != nil {
				b.Fatal(err)
			}
		}
	})
}
