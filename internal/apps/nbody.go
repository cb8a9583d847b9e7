package apps

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/satin"
)

// NBodyPerfect is the unoptimized all-pairs force kernel at level perfect.
// pos is [n,4]: x, y, z, mass. The leaf computes accelerations for bodies
// [off, off+nloc).
const NBodyPerfect = `
perfect void nbody(int nloc, int off, int n,
    float[n,4] pos, float[nloc,3] acc) {
  foreach (int i in nloc threads) {
    float px = pos[off + i, 0];
    float py = pos[off + i, 1];
    float pz = pos[off + i, 2];
    float ax = 0.0;
    float ay = 0.0;
    float az = 0.0;
    for (int j = 0; j < n; j++) {
      float dx = pos[j,0] - px;
      float dy = pos[j,1] - py;
      float dz = pos[j,2] - pz;
      float d2 = dx * dx + dy * dy + dz * dz + 0.01;
      float inv = rsqrt(d2);
      float s = pos[j,3] * inv * inv * inv;
      ax += dx * s;
      ay += dy * s;
      az += dz * s;
    }
    acc[i,0] = ax;
    acc[i,1] = ay;
    acc[i,2] = az;
  }
}
`

// NBodyGPU is the optimized version: bodies are staged through local memory
// in tiles of 256, the classic GPU n-body optimization.
const NBodyGPU = `
gpu void nbody(int nloc, int off, int n,
    float[n,4] pos, float[nloc,3] acc) {
  foreach (int b in nloc / 256 blocks) {
    local float[256,4] tile;
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      float px = pos[off + i, 0];
      float py = pos[off + i, 1];
      float pz = pos[off + i, 2];
      float ax = 0.0;
      float ay = 0.0;
      float az = 0.0;
      for (int j0 = 0; j0 < n; j0 += 256) {
        tile[t,0] = pos[j0 + t, 0];
        tile[t,1] = pos[j0 + t, 1];
        tile[t,2] = pos[j0 + t, 2];
        tile[t,3] = pos[j0 + t, 3];
        barrier();
        for (int j = 0; j < 256; j++) {
          float dx = tile[j,0] - px;
          float dy = tile[j,1] - py;
          float dz = tile[j,2] - pz;
          float d2 = dx * dx + dy * dy + dz * dz + 0.01;
          float inv = rsqrt(d2);
          float s = tile[j,3] * inv * inv * inv;
          ax += dx * s;
          ay += dy * s;
          az += dz * s;
        }
        barrier();
      }
      acc[i,0] = ax;
      acc[i,1] = ay;
      acc[i,2] = az;
    }
  }
}
`

// NBodyKernels returns the kernel set for the variant.
func NBodyKernels(v Variant) (*codegen.KernelSet, error) {
	if v == CashmereOptimized {
		return codegen.NewKernelSet("nbody", NBodyPerfect, NBodyGPU)
	}
	return codegen.NewKernelSet("nbody", NBodyPerfect)
}

// NBodyProblem sizes the simulation: N bodies, Iters timesteps, LeafBodies
// bodies per leaf job.
type NBodyProblem struct {
	N          int
	Iters      int
	LeafBodies int
	NodeLeaves int
}

// PaperNBody is the evaluation configuration of Sec. V-B.4: two iterations
// of two million bodies.
func PaperNBody() NBodyProblem {
	return NBodyProblem{N: 2_000_000, Iters: 2, LeafBodies: 4096, NodeLeaves: 4}
}

// Flops reports the operation count using the analyzer's convention for the
// unoptimized kernel body: ~20 flops per pairwise interaction.
func (p NBodyProblem) Flops() float64 {
	n := float64(p.N)
	return float64(p.Iters) * n * n * 20
}

func (p NBodyProblem) leaves() int { return (p.N + p.LeafBodies - 1) / p.LeafBodies }

// posBytes is the O(N) per-iteration communication payload (positions and
// masses of all bodies).
func (p NBodyProblem) posBytes() int64 { return int64(p.N) * 16 }

// RunNBody executes the simulation on the cluster in the given variant.
func RunNBody(cl *core.Cluster, prob NBodyProblem, v Variant) (Result, error) {
	if prob.LeafBodies%256 != 0 {
		return Result{}, fmt.Errorf("apps: nbody LeafBodies must be a multiple of 256")
	}
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		// The replicated body state: every node holds the positions;
		// after each iteration the master broadcasts the update (O(N),
		// the all-to-all pattern Table II calls moderate communication).
		positions := ctx.Runtime().NewShared("positions",
			func(node int) any { return &struct{ version int }{} },
			func(node int, replica, args any) { replica.(*struct{ version int }).version++ })

		for iter := 0; iter < prob.Iters; iter++ {
			divide1D(ctx, v, 0, prob.leaves(), prob.NodeLeaves,
				func(lo, hi int) (int64, int64) {
					// Positions are node-resident (shared object); stolen
					// jobs carry only descriptors, results carry the chunk's
					// accelerations.
					return 256, int64((hi - lo) * prob.LeafBodies * 12)
				},
				func(c *satin.Context, leaf int) {
					nbodyLeaf(cl, c, prob, v, leaf, iter)
				})
			// Integrate on the master and broadcast the new positions.
			ctx.Compute(500*time.Microsecond, "nbody-integrate")
			positions.Invoke(ctx, prob.posBytes(), iter)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return finish(prob.Flops(), end), nil
}

func nbodyLeaf(cl *core.Cluster, ctx *satin.Context, prob NBodyProblem, v Variant, leaf, iter int) {
	lo := leaf * prob.LeafBodies
	hi := min(lo+prob.LeafBodies, prob.N)
	nloc := hi - lo
	leafFlops := 20 * float64(nloc) * float64(prob.N)
	if v == Satin {
		cpuLeaf(ctx, leafFlops, "nbody-leaf")
		return
	}
	kernel, err := core.GetKernel(ctx, "nbody")
	if err != nil {
		cpuLeaf(ctx, leafFlops, "nbody-leaf-cpu")
		return
	}
	spec := core.LaunchSpec{
		Params: map[string]int64{
			"nloc": int64(nloc), "off": int64(lo), "n": int64(prob.N),
		},
		// The positions are device-resident, re-shipped once per device per
		// iteration ("device copies", Sec. II-C.1); per launch only the
		// chunk's accelerations come back.
		Resident: &core.Resident{Tag: "pos", Bytes: prob.posBytes(), Version: iter},
		OutBytes: int64(nloc * 12),
		Label:    "nbody",
	}
	if d := nbodyVerifyData[cl]; d != nil && cl.Verify() {
		spec.Args = nbodyVerifyArgs(cl, d, lo, nloc)
	}
	if err := kernel.NewLaunch(spec).Run(ctx); err != nil {
		cpuLeaf(ctx, leafFlops, "nbody-leaf-cpu")
	}
}

// NBodyData carries real data for a verification run.
type NBodyData struct {
	Prob NBodyProblem
	Pos  *mcpl.Array // [n,4]
	Acc  *mcpl.Array // [n,3], filled by the run
}

var nbodyVerifyData = map[*core.Cluster]*NBodyData{}

// AttachNBodyData creates and registers real bodies for verification.
func AttachNBodyData(cl *core.Cluster, prob NBodyProblem, seed int64) *NBodyData {
	rng := rand.New(rand.NewSource(seed))
	d := &NBodyData{
		Prob: prob,
		Pos:  mcpl.NewFloatArray(prob.N, 4),
		Acc:  mcpl.NewFloatArray(prob.N, 3),
	}
	for i := 0; i < prob.N; i++ {
		d.Pos.F[i*4+0] = rng.Float64()*2 - 1
		d.Pos.F[i*4+1] = rng.Float64()*2 - 1
		d.Pos.F[i*4+2] = rng.Float64()*2 - 1
		d.Pos.F[i*4+3] = rng.Float64() + 0.1
	}
	nbodyVerifyData[cl] = d
	return d
}

type nbAccView struct {
	cl  *core.Cluster
	lo  int
	arr *mcpl.Array
}

var nbPending []*nbAccView

func nbodyVerifyArgs(cl *core.Cluster, d *NBodyData, lo, nloc int) []any {
	acc := mcpl.NewFloatArray(nloc, 3)
	nbPending = append(nbPending, &nbAccView{cl: cl, lo: lo, arr: acc})
	return []any{int64(nloc), int64(lo), int64(d.Prob.N), d.Pos, acc}
}

// FlushNBody copies leaf accelerations of a verification run back into the
// attached data.
func FlushNBody(cl *core.Cluster) {
	d := nbodyVerifyData[cl]
	if d == nil {
		return
	}
	rest := nbPending[:0]
	for _, v := range nbPending {
		if v.cl != cl {
			rest = append(rest, v)
			continue
		}
		copy(d.Acc.F[v.lo*3:v.lo*3+v.arr.Len()], v.arr.F)
	}
	nbPending = rest
}

// NBodyReferenceAcc computes the reference accelerations in Go, mirroring
// the kernel arithmetic exactly.
func NBodyReferenceAcc(d *NBodyData) *mcpl.Array {
	n := d.Prob.N
	out := mcpl.NewFloatArray(n, 3)
	for i := 0; i < n; i++ {
		px, py, pz := d.Pos.F[i*4], d.Pos.F[i*4+1], d.Pos.F[i*4+2]
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			dx := d.Pos.F[j*4] - px
			dy := d.Pos.F[j*4+1] - py
			dz := d.Pos.F[j*4+2] - pz
			d2 := dx*dx + dy*dy + dz*dz + 0.01
			inv := 1 / math.Sqrt(d2)
			s := d.Pos.F[j*4+3] * inv * inv * inv
			ax += dx * s
			ay += dy * s
			az += dz * s
		}
		out.F[i*3], out.F[i*3+1], out.F[i*3+2] = ax, ay, az
	}
	return out
}
