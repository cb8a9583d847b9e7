package apps

import (
	"fmt"
	"math/rand"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

// KMeansPerfect is the unoptimized assignment kernel at level perfect:
// points in row-major [n,d] layout (array-of-structures), the natural first
// formulation. The lane-strided point accesses are what the MCL feedback
// flags on GPU levels.
const KMeansPerfect = `
perfect void kmeans(int n, int k, int d,
    float[n,d] points, float[k,d] centroids, int[n] assign) {
  foreach (int i in n threads) {
    int best = 0;
    float bestDist = 1e30;
    for (int c = 0; c < k; c++) {
      float dist = 0.0;
      for (int f = 0; f < d; f++) {
        float diff = points[i,f] - centroids[c,f];
        dist += diff * diff;
      }
      if (dist < bestDist) {
        bestDist = dist;
        best = c;
      }
    }
    assign[i] = best;
  }
}
`

// KMeansGPU is the optimized version: structure-of-arrays point layout
// (coalesced across threads) and centroids staged through local memory in
// tiles of 256.
const KMeansGPU = `
gpu void kmeans(int n, int k, int d,
    float[d,n] points, float[k,d] centroids, int[n] assign) {
  foreach (int b in n / 256 blocks) {
    local float[256,4] ctile;
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      float[4] p;
      for (int f = 0; f < d; f++) {
        p[f] = points[f,i];
      }
      int best = 0;
      float bestDist = 1e30;
      for (int c0 = 0; c0 < k; c0 += 256) {
        for (int f = 0; f < d; f++) {
          ctile[t,f] = centroids[c0 + t, f];
        }
        barrier();
        for (int c = 0; c < 256; c++) {
          float dist = 0.0;
          for (int f = 0; f < d; f++) {
            float diff = p[f] - ctile[c,f];
            dist += diff * diff;
          }
          if (dist < bestDist) {
            bestDist = dist;
            best = c0 + c;
          }
        }
        barrier();
      }
      assign[i] = best;
    }
  }
}
`

// KMeansMIC is the version optimized for the Xeon Phi (level mic):
// structure-of-arrays layout vectorizes across the 16 lanes; no local
// memory (the Phi has caches, not scratchpads). The paper optimized every
// kernel per device; this is what keeps the Phi within ~4x of the K20
// (Sec. V-C) instead of orders of magnitude behind.
const KMeansMIC = `
mic void kmeans(int n, int k, int d,
    float[d,n] points, float[k,d] centroids, int[n] assign) {
  foreach (int c0 in n / 16 cores) {
    foreach (int v in 16 vectors) {
      int i = c0 * 16 + v;
      float[4] p;
      for (int f = 0; f < d; f++) {
        p[f] = points[f,i];
      }
      int best = 0;
      float bestDist = 1e30;
      for (int c = 0; c < k; c++) {
        float dist = 0.0;
        for (int f = 0; f < d; f++) {
          float diff = p[f] - centroids[c,f];
          dist += diff * diff;
        }
        if (dist < bestDist) {
          bestDist = dist;
          best = c;
        }
      }
      assign[i] = best;
    }
  }
}
`

// KMeansKernels returns the kernel set for the variant.
func KMeansKernels(v Variant) (*codegen.KernelSet, error) {
	if v == CashmereOptimized {
		return codegen.NewKernelSet("kmeans", KMeansPerfect, KMeansGPU, KMeansMIC)
	}
	return codegen.NewKernelSet("kmeans", KMeansPerfect)
}

// KMeansProblem sizes the clustering: N points with D features into K
// clusters, Iters iterations; LeafPoints points per leaf job.
type KMeansProblem struct {
	N, K, D    int
	Iters      int
	LeafPoints int
	NodeLeaves int
}

// PaperKMeans is the evaluation configuration of Sec. V-B.3: 4096 clusters
// from 268 million (2^28) 4-feature points, three iterations.
func PaperKMeans() KMeansProblem {
	return KMeansProblem{N: 1 << 28, K: 4096, D: 4, Iters: 3, LeafPoints: 1 << 18, NodeLeaves: 8}
}

// Flops reports the operation count: 3*N*K*D per iteration (subtract,
// multiply, accumulate per feature per cluster per point).
func (p KMeansProblem) Flops() float64 {
	return float64(p.Iters) * 3 * float64(p.N) * float64(p.K) * float64(p.D)
}

func (p KMeansProblem) leaves() int { return (p.N + p.LeafPoints - 1) / p.LeafPoints }

// centroidBytes is the per-iteration O(K) communication payload.
func (p KMeansProblem) centroidBytes() int64 { return int64(p.K * p.D * 4) }

// KMeansData carries real data for a verification run.
type KMeansData struct {
	Prob KMeansProblem
	// Points in [n,d] layout and its transpose [d,n] for the optimized
	// kernel; Centroids [k,d]; Assign is filled by the run.
	Points, PointsT, Centroids *mcpl.Array
	Assign                     *mcpl.Array
}

var kmeansVerify = map[*core.Cluster]*KMeansData{}

// AttachKMeansData creates and registers real data for verification runs.
func AttachKMeansData(cl *core.Cluster, prob KMeansProblem, seed int64) *KMeansData {
	rng := rand.New(rand.NewSource(seed))
	d := &KMeansData{
		Prob:      prob,
		Points:    mcpl.NewFloatArray(prob.N, prob.D),
		PointsT:   mcpl.NewFloatArray(prob.D, prob.N),
		Centroids: mcpl.NewFloatArray(prob.K, prob.D),
		Assign:    mcpl.NewIntArray(prob.N),
	}
	for i := 0; i < prob.N; i++ {
		for f := 0; f < prob.D; f++ {
			v := rng.Float64() * 100
			d.Points.F[i*prob.D+f] = v
			d.PointsT.F[f*prob.N+i] = v
		}
	}
	for c := 0; c < prob.K; c++ {
		src := rng.Intn(prob.N)
		copy(d.Centroids.F[c*prob.D:(c+1)*prob.D], d.Points.F[src*prob.D:(src+1)*prob.D])
	}
	kmeansVerify[cl] = d
	return d
}

// RunKMeans executes the clustering on the cluster in the given variant.
func RunKMeans(cl *core.Cluster, prob KMeansProblem, v Variant) (Result, error) {
	if prob.LeafPoints%256 != 0 {
		return Result{}, fmt.Errorf("apps: kmeans LeafPoints must be a multiple of 256")
	}
	if v == CashmereOptimized && prob.K%256 != 0 {
		return Result{}, fmt.Errorf("apps: optimized kmeans requires K to be a multiple of 256")
	}
	nodes := cl.Runtime().Nodes()
	var computeStart simnet.Time
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		// One-time distribution of the point set: master scatters each
		// node's share (points stay node-resident across iterations; the
		// per-iteration network traffic is O(K), Table II). As in the
		// paper's methodology, input staging is not part of the measured
		// computation.
		share := int64(prob.N / max(nodes, 1) * prob.D * 4)
		for nd := 1; nd < nodes; nd++ {
			ctx.Runtime().Fabric().Endpoint(0).Send(ctx.Proc(), nd, "points", share, nil)
		}
		computeStart = ctx.Proc().Now()

		// The centroid replica each node reads and the master updates.
		centroids := ctx.Runtime().NewShared("centroids",
			func(node int) any { return &struct{ version int }{} },
			func(node int, replica, args any) { replica.(*struct{ version int }).version++ })

		for iter := 0; iter < prob.Iters; iter++ {
			divide1D(ctx, v, 0, prob.leaves(), prob.NodeLeaves,
				func(lo, hi int) (int64, int64) {
					// Thieves receive the centroids; results are the O(K)
					// partial sums.
					return prob.centroidBytes(), prob.centroidBytes() + int64(prob.K*4)
				},
				func(c *satin.Context, leaf int) {
					kmeansLeaf(cl, c, prob, v, leaf)
				})
			// Master updates the centroids and broadcasts them (shared
			// object write method, O(K) traffic).
			ctx.Compute(200*time.Microsecond, "centroid-update")
			centroids.Invoke(ctx, prob.centroidBytes(), iter)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return finish(prob.Flops(), end-computeStart), nil
}

func kmeansLeaf(cl *core.Cluster, ctx *satin.Context, prob KMeansProblem, v Variant, leaf int) {
	lo := leaf * prob.LeafPoints
	hi := min(lo+prob.LeafPoints, prob.N)
	npts := hi - lo
	leafFlops := 3 * float64(npts) * float64(prob.K) * float64(prob.D)
	if v == Satin {
		cpuLeaf(ctx, leafFlops, "kmeans-leaf")
		return
	}
	kernel, err := core.GetKernel(ctx, "kmeans")
	if err != nil {
		cpuLeaf(ctx, leafFlops, "kmeans-leaf-cpu")
		return
	}
	spec := core.LaunchSpec{
		Params: map[string]int64{
			"n": int64(npts), "k": int64(prob.K), "d": int64(prob.D),
		},
		// PCIe: the point chunk and centroids go to the device, the
		// assignment vector comes back (Fig. 16's narrow transfer bars).
		InBytes:  int64(npts*prob.D*4) + prob.centroidBytes(),
		OutBytes: int64(npts * 4),
		Label:    "kmeans",
	}
	if d := kmeansVerify[cl]; d != nil && cl.Verify() {
		spec.Args = kmeansVerifyArgs(cl, d, lo, hi, v)
	}
	if err := kernel.NewLaunch(spec).Run(ctx); err != nil {
		cpuLeaf(ctx, leafFlops, "kmeans-leaf-cpu")
		return
	}
	// Host-side partial-sum accumulation over the assignments.
	cpuLeaf(ctx, float64(npts*prob.D), "kmeans-partials")
}

func kmeansVerifyArgs(cl *core.Cluster, d *KMeansData, lo, hi int, v Variant) []any {
	prob := d.Prob
	npts := hi - lo
	assign := &kmAssignView{cl: cl, lo: lo, arr: mcpl.NewIntArray(npts)}
	kmPending = append(kmPending, assign)
	// Which layout the compiled kernel expects depends on the selected
	// version; the optimized set compiles the SoA kernel for GPU leaves and
	// the AoS kernel elsewhere. We pass the layout matching the variant's
	// chosen source; both kernels take (n,k,d,points,centroids,assign).
	var pts *mcpl.Array
	if v == CashmereOptimized {
		pts = mcpl.NewFloatArray(prob.D, npts)
		for f := 0; f < prob.D; f++ {
			copy(pts.F[f*npts:(f+1)*npts], d.PointsT.F[f*prob.N+lo:f*prob.N+hi])
		}
	} else {
		pts = mcpl.NewFloatArray(npts, prob.D)
		copy(pts.F, d.Points.F[lo*prob.D:hi*prob.D])
	}
	return []any{int64(npts), int64(prob.K), int64(prob.D), pts, d.Centroids, assign.arr}
}

type kmAssignView struct {
	cl  *core.Cluster
	lo  int
	arr *mcpl.Array
}

var kmPending []*kmAssignView

// FlushKMeans copies leaf assignments of a verification run back into the
// attached data.
func FlushKMeans(cl *core.Cluster) {
	d := kmeansVerify[cl]
	if d == nil {
		return
	}
	rest := kmPending[:0]
	for _, v := range kmPending {
		if v.cl != cl {
			rest = append(rest, v)
			continue
		}
		copy(d.Assign.I[v.lo:v.lo+v.arr.Len()], v.arr.I)
	}
	kmPending = rest
}

// KMeansReferenceAssign computes the reference assignment in Go.
func KMeansReferenceAssign(d *KMeansData) []int64 {
	prob := d.Prob
	out := make([]int64, prob.N)
	for i := 0; i < prob.N; i++ {
		best, bestDist := 0, 1e30
		for c := 0; c < prob.K; c++ {
			dist := 0.0
			for f := 0; f < prob.D; f++ {
				diff := d.Points.F[i*prob.D+f] - d.Centroids.F[c*prob.D+f]
				dist += diff * diff
			}
			if dist < bestDist {
				bestDist, best = dist, c
			}
		}
		out[i] = int64(best)
	}
	return out
}
