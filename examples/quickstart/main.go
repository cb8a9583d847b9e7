// Quickstart: the smallest complete Cashmere program.
//
// It defines one MCPL kernel (vector scale), builds a four-node simulated
// cluster with one GTX480 per node, divides the work with spawn/sync, and
// runs each leaf on the node's device — with verification enabled, so the
// kernel really executes and the result is checked.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cashmere"
)

const kernelSrc = `
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0 + 1.0;
  }
}
`

func main() {
	// 1. Parse, check and register the kernel (all versions of it — here
	//    just the one written for hardware description "perfect").
	ks, err := cashmere.NewKernelSet("scale", kernelSrc)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build a simulated cluster: 4 nodes, one GTX480 each, QDR
	//    InfiniBand. Verify mode runs kernels for real on the given data.
	cfg := cashmere.DefaultConfig(4, "gtx480")
	cfg.Verify = true
	cl, err := cashmere.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		log.Fatal(err)
	}

	// 3. The data: 1 Mi floats, divided into 8 leaves.
	const n, leaves = 1 << 20, 8
	chunk := n / leaves
	data := make([]*cashmere.Array, leaves)
	for i := range data {
		data[i] = cashmere.NewFloatArray(chunk)
		for j := 0; j < chunk; j++ {
			data[i].F[j] = float64(i*chunk + j)
		}
	}

	// 4. The divide-and-conquer host program (Fig. 5 of the paper).
	var run func(ctx *cashmere.Context, lo, hi int)
	run = func(ctx *cashmere.Context, lo, hi int) {
		if hi-lo == 1 {
			kernel, err := cashmere.GetKernel(ctx, "scale")
			if err != nil {
				log.Fatal(err) // no CPU fallback in this tiny example
			}
			launch := kernel.NewLaunch(cashmere.LaunchSpec{
				Params:  map[string]int64{"n": int64(chunk)},
				InBytes: int64(4 * chunk), OutBytes: int64(4 * chunk),
				Args: []any{int64(chunk), data[lo]},
			})
			if err := launch.Run(ctx); err != nil {
				log.Fatal(err)
			}
			return
		}
		if hi-lo <= 2 && !ctx.ManyCore() {
			ctx.EnableManyCore() // leaves below here become device threads
		}
		mid := (lo + hi) / 2
		desc := cashmere.JobDesc{Name: "scale", InputBytes: int64(4 * chunk), ResultBytes: 64}
		ctx.Spawn(desc, func(c *cashmere.Context) any { run(c, lo, mid); return nil })
		ctx.Spawn(desc, func(c *cashmere.Context) any { run(c, mid, hi); return nil })
		ctx.Sync()
	}

	_, elapsed, err := cl.Run(func(ctx *cashmere.Context) any {
		run(ctx, 0, leaves)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Check the result (the kernel really ran, via the closure engine).
	for i, arr := range data {
		for j, v := range arr.F {
			want := float64(i*chunk+j)*2 + 1
			if v != want {
				log.Fatalf("data[%d][%d] = %v, want %v", i, j, v, want)
			}
		}
	}
	fmt.Printf("scaled %d floats on a 4-node simulated cluster in %v (virtual)\n", n, elapsed)
	fmt.Println("all values verified: a[i] = 2*a[i] + 1")
}
