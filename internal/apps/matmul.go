package apps

import (
	"fmt"
	"math"
	"math/rand"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/satin"
)

// MatmulPerfect is the unoptimized matrix multiplication kernel of Fig. 3,
// written for hardware description perfect.
const MatmulPerfect = `
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

// MatmulGPU is the optimized version at level gpu: 16x16 local-memory
// tiling, the refinement the MCL feedback engine suggests. Requires n, m
// and p to be multiples of 16.
const MatmulGPU = `
gpu void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int bi in n / 16 blocks) {
    foreach (int bj in m / 16 blocks) {
      local float[16,16] ta;
      local float[16,16] tb;
      foreach (int ti in 16 threads) {
        foreach (int tj in 16 threads) {
          float sum = 0.0;
          for (int t = 0; t < p / 16; t++) {
            ta[ti,tj] = a[bi * 16 + ti, t * 16 + tj];
            tb[ti,tj] = b[t * 16 + ti, bj * 16 + tj];
            barrier();
            for (int k = 0; k < 16; k++) {
              sum += ta[ti,k] * tb[k,tj];
            }
            barrier();
          }
          c[bi * 16 + ti, bj * 16 + tj] += sum;
        }
      }
    }
  }
}
`

// MatmulKernels returns the kernel set for the given variant.
func MatmulKernels(v Variant) (*codegen.KernelSet, error) {
	if v == CashmereOptimized {
		return codegen.NewKernelSet("matmul", MatmulPerfect, MatmulGPU)
	}
	return codegen.NewKernelSet("matmul", MatmulPerfect)
}

// MatmulProblem sizes the computation: C = A x B with N x N single-
// precision matrices (the paper uses N = 32768), a LeafTile x LeafTile
// block of C per leaf job, and NodeLeaves leaves per node-level job (the
// paper's sets of 8).
type MatmulProblem struct {
	N          int
	LeafTile   int
	NodeLeaves int
}

// PaperMatmul is the evaluation configuration of Sec. V-B.2.
func PaperMatmul() MatmulProblem {
	return MatmulProblem{N: 32768, LeafTile: 2048, NodeLeaves: 8}
}

// Flops reports the paper's operation count for the problem: 2N^3.
func (p MatmulProblem) Flops() float64 {
	n := float64(p.N)
	return 2 * n * n * n
}

// block is a rectangular region of C.
type mmBlock struct{ r0, r1, c0, c1 int }

func (b mmBlock) rows() int { return b.r1 - b.r0 }
func (b mmBlock) cols() int { return b.c1 - b.c0 }

// bytesIn is the input a thief must receive to compute the block: the A row
// panel, the B column panel and the C block itself.
func (p MatmulProblem) bytesIn(b mmBlock) int64 {
	return 4 * int64(b.rows()*p.N+p.N*b.cols()+b.rows()*b.cols())
}

func (p MatmulProblem) bytesOut(b mmBlock) int64 {
	return 4 * int64(b.rows()*b.cols())
}

// RunMatmul executes the matrix multiplication on the cluster in the given
// variant and reports the achieved performance.
func RunMatmul(cl *core.Cluster, prob MatmulProblem, v Variant) (Result, error) {
	if prob.N%prob.LeafTile != 0 || prob.LeafTile%16 != 0 {
		return Result{}, fmt.Errorf("apps: matmul N must be a multiple of LeafTile, LeafTile of 16")
	}
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		matmulDivide(cl, ctx, prob, v, mmBlock{0, prob.N, 0, prob.N})
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return finish(prob.Flops(), end), nil
}

// matmulDivide is the 2-D divide-and-conquer: split the C block along its
// larger dimension until a node-sized block remains, switch to many-core
// mode, keep splitting into leaf tiles, and run the kernel on each.
func matmulDivide(cl *core.Cluster, ctx *satin.Context, prob MatmulProblem, v Variant, b mmBlock) {
	leaves := (b.rows() / prob.LeafTile) * (b.cols() / prob.LeafTile)
	if leaves <= 1 {
		matmulLeaf(cl, ctx, prob, v, b)
		return
	}
	if leaves <= prob.NodeLeaves && !ctx.ManyCore() && v != Satin {
		ctx.EnableManyCore()
	}
	l, r := b, b
	if b.rows() >= b.cols() {
		mid := b.r0 + b.rows()/2/prob.LeafTile*prob.LeafTile
		l.r1, r.r0 = mid, mid
	} else {
		mid := b.c0 + b.cols()/2/prob.LeafTile*prob.LeafTile
		l.c1, r.c0 = mid, mid
	}
	for _, half := range []mmBlock{l, r} {
		half := half
		ctx.Spawn(satin.JobDesc{
			Name:       fmt.Sprintf("matmul[%d:%d,%d:%d]", half.r0, half.r1, half.c0, half.c1),
			InputBytes: prob.bytesIn(half), ResultBytes: prob.bytesOut(half),
		}, func(c *satin.Context) any {
			matmulDivide(cl, c, prob, v, half)
			return nil
		})
	}
	ctx.Sync()
}

func matmulLeaf(cl *core.Cluster, ctx *satin.Context, prob MatmulProblem, v Variant, b mmBlock) {
	leafFlops := 2 * float64(b.rows()) * float64(b.cols()) * float64(prob.N)
	if v == Satin {
		cpuLeaf(ctx, leafFlops, "matmul-leaf")
		return
	}
	kernel, err := core.GetKernel(ctx, "matmul")
	if err != nil {
		cpuLeaf(ctx, leafFlops, "matmul-leaf-cpu")
		return
	}
	spec := core.LaunchSpec{
		Params: map[string]int64{
			"n": int64(b.rows()), "m": int64(b.cols()), "p": int64(prob.N),
		},
		InBytes:  prob.bytesIn(b),
		OutBytes: prob.bytesOut(b),
		Label:    "matmul",
	}
	if cl.Verify() {
		spec.Args = matmulVerifyArgs(cl, b, prob)
	}
	if err := kernel.NewLaunch(spec).Run(ctx); err != nil {
		// Fig. 4: exception from kernel setup -> leaf on the CPU.
		cpuLeaf(ctx, leafFlops, "matmul-leaf-cpu")
	}
}

// Verification support: in Verify mode the cluster carries real matrices
// and every leaf extracts its panels, runs the kernel through the closure
// engine, and writes its block back.

// MatmulData holds the real matrices of a verification run.
type MatmulData struct {
	N       int
	A, B, C *mcpl.Array
}

var verifyData = map[*core.Cluster]*MatmulData{}

// AttachMatmulData registers real matrices for a verification run and
// returns them initialized from the seed.
func AttachMatmulData(cl *core.Cluster, n int, seed int64) *MatmulData {
	rng := rand.New(rand.NewSource(seed))
	d := &MatmulData{
		N: n,
		A: mcpl.NewFloatArray(n, n),
		B: mcpl.NewFloatArray(n, n),
		C: mcpl.NewFloatArray(n, n),
	}
	for i := range d.A.F {
		d.A.F[i] = rng.Float64()
		d.B.F[i] = rng.Float64()
	}
	verifyData[cl] = d
	return d
}

func matmulVerifyArgs(cl *core.Cluster, b mmBlock, prob MatmulProblem) []any {
	d := verifyData[cl]
	if d == nil {
		return nil
	}
	rows, cols, n := b.rows(), b.cols(), d.N
	a := mcpl.NewFloatArray(rows, n)
	bb := mcpl.NewFloatArray(n, cols)
	c := &matmulViewC{cl: cl, b: b}
	for i := 0; i < rows; i++ {
		copy(a.F[i*n:(i+1)*n], d.A.F[(b.r0+i)*n:(b.r0+i+1)*n])
	}
	for k := 0; k < n; k++ {
		copy(bb.F[k*cols:(k+1)*cols], d.B.F[k*n+b.c0:k*n+b.c1])
	}
	cArr := mcpl.NewFloatArray(rows, cols)
	for i := 0; i < rows; i++ {
		copy(cArr.F[i*cols:(i+1)*cols], d.C.F[(b.r0+i)*n+b.c0:(b.r0+i)*n+b.c1])
	}
	c.arr = cArr
	// Register a write-back: the kernel mutates cArr; copy back after
	// the launch. We do it eagerly by wrapping the array; the launch path
	// calls compiled.Run synchronously, so copying back right after Run
	// would be ideal — instead we rely on the caller reading C once the run
	// completes via FlushMatmul.
	pendingC = append(pendingC, c)
	return []any{int64(rows), int64(cols), int64(n), cArr, a, bb}
}

type matmulViewC struct {
	cl  *core.Cluster
	b   mmBlock
	arr *mcpl.Array
}

var pendingC []*matmulViewC

// FlushMatmul writes all leaf C blocks of a verification run back into the
// attached full matrix. Call after RunMatmul.
func FlushMatmul(cl *core.Cluster) {
	d := verifyData[cl]
	if d == nil {
		return
	}
	rest := pendingC[:0]
	for _, v := range pendingC {
		if v.cl != cl {
			rest = append(rest, v)
			continue
		}
		rows, cols := v.b.rows(), v.b.cols()
		for i := 0; i < rows; i++ {
			copy(d.C.F[(v.b.r0+i)*d.N+v.b.c0:(v.b.r0+i)*d.N+v.b.c1], v.arr.F[i*cols:(i+1)*cols])
		}
	}
	pendingC = rest
}

// MatmulReference computes C = A x B in plain Go for verification.
func MatmulReference(d *MatmulData) *mcpl.Array {
	n := d.N
	out := mcpl.NewFloatArray(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := d.A.F[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.F[i*n+j] += aik * d.B.F[k*n+j]
			}
		}
	}
	return out
}

// MatmulMaxError reports the max absolute difference between the attached
// C and the reference product.
func MatmulMaxError(d *MatmulData) float64 {
	ref := MatmulReference(d)
	maxErr := 0.0
	for i := range ref.F {
		if e := math.Abs(ref.F[i] - d.C.F[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}
