package core_test

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
)

// TestCostCacheReplay runs 8-node raytracer and n-body simulations, then
// replays every leaf launch of each against a node's cost cache, leaf i on
// node i mod 8: each cached cost must equal a fresh evaluation with the same
// parameters. The leaves differ in parameters the cost does not depend on
// (raytracer's y0, n-body's off), so nearly every replayed launch is a hit.
func TestCostCacheReplay(t *testing.T) {
	rt := apps.PaperRaytracer()
	var rtLaunches []map[string]int64
	for y0 := 0; y0 < rt.H; y0 += rt.LeafRows {
		rtLaunches = append(rtLaunches, map[string]int64{
			"w": int64(rt.W), "h": int64(rt.H), "y0": int64(y0), "rows": int64(min(rt.LeafRows, rt.H-y0)),
			"samples": int64(rt.Samples), "ns": int64(apps.CornellScene().Dims[0]), "seed0": rt.Seed,
		})
	}
	nb := apps.PaperNBody()
	var nbLaunches []map[string]int64
	for lo := 0; lo < nb.N; lo += nb.LeafBodies {
		nbLaunches = append(nbLaunches, map[string]int64{
			"nloc": int64(min(nb.LeafBodies, nb.N-lo)), "off": int64(lo), "n": int64(nb.N),
		})
	}
	cases := []struct {
		kernel   string
		kernels  func(apps.Variant) (*codegen.KernelSet, error)
		run      func(*core.Cluster) (apps.Result, error)
		launches []map[string]int64
		iters    int // times the run launches each leaf
	}{
		{"raytrace", apps.RaytracerKernels, func(cl *core.Cluster) (apps.Result, error) {
			return apps.RunRaytracer(cl, rt, apps.CashmereOptimized)
		}, rtLaunches, 1},
		{"nbody", apps.NBodyKernels, func(cl *core.Cluster) (apps.Result, error) {
			return apps.RunNBody(cl, nb, apps.CashmereOptimized)
		}, nbLaunches, nb.Iters},
	}
	for _, tc := range cases {
		cl, err := core.NewCluster(core.DefaultConfig(8, "gtx480"))
		if err != nil {
			t.Fatal(err)
		}
		ks, err := tc.kernels(apps.CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(ks); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.run(cl); err != nil {
			t.Fatal(err)
		}
		var runHits, runMisses int64
		for i := 0; i < 8; i++ {
			h, m := cl.NodeState(i).CostCacheStats()
			runHits += h
			runMisses += m
		}
		if got, want := runHits+runMisses, int64(len(tc.launches)*tc.iters); got != want {
			t.Errorf("%s: run made %d cost lookups, want %d (one per leaf launch)", tc.kernel, got, want)
		}
		if runMisses > 16 {
			t.Errorf("%s: run missed %d times, want at most two distinct costs per node", tc.kernel, runMisses)
		}
		for i, p := range tc.launches {
			cached, fresh, err := core.ReplayCost(cl.NodeState(i%8), tc.kernel, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			if cached != fresh {
				t.Fatalf("%s leaf %d %v: cached %+v, fresh %+v", tc.kernel, i, p, cached, fresh)
			}
		}
		var hits int64
		for i := 0; i < 8; i++ {
			h, _ := cl.NodeState(i).CostCacheStats()
			hits += h
		}
		if replayHits := hits - runHits; replayHits < int64(len(tc.launches))-16 {
			t.Errorf("%s: %d of %d replayed launches hit the cache", tc.kernel, replayHits, len(tc.launches))
		}
	}
}
