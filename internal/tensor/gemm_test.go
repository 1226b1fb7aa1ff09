package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomMatrix fills a rows x cols matrix with values in [-2, 2).
func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*4 - 2
	}
	return m
}

// specialMatrix is randomMatrix with IEEE edge cases mixed in: ±0 and
// subnormals in every matrix, ±Inf and NaN when nonFinite is set, and
// whole rows of -0 (whose every product is ±0, so a kernel that seeded
// an accumulator with its first product instead of +0 would return -0).
func specialMatrix(rng *rand.Rand, rows, cols int, nonFinite bool) *Matrix {
	m := randomMatrix(rng, rows, cols)
	specials := []float64{0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 0x1.8p-1030, -0x1p-1023}
	if nonFinite {
		specials = append(specials, math.Inf(1), math.Inf(-1), math.NaN())
	}
	for i := range m.Data {
		if rng.Intn(16) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(8) == 0 {
			m.Row(i).Fill(math.Copysign(0, -1))
		}
	}
	return m
}

// sameBits reports whether got and want are the same float64 bit for
// bit, except that any NaN matches any NaN: NaN payloads depend on
// operand order, which this package does not promise.
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// matMulNTKernels lists every way a caller can reach an f64 MatMulNT
// kernel: the dispatched entry points and both implementations called
// directly, the AVX2 one (where the CPU has it) at every row count —
// including the small ones the dispatcher keeps on the Go kernel.
func matMulNTKernels() []matMulNTKernel {
	var pack []float64
	kernels := []matMulNTKernel{
		{"MatMulNT", MatMulNT},
		{"MatMulNTBuf", func(dst, a, b *Matrix) { MatMulNTBuf(dst, a, b, &pack) }},
		{"go", matMulNTGo},
	}
	if hasAVX2 {
		kernels = append(kernels, matMulNTKernel{"avx2", func(dst, a, b *Matrix) { matMulNTAVX2(dst, a, b, &pack) }})
	}
	return kernels
}

type matMulNTKernel struct {
	name string
	run  func(dst, a, b *Matrix)
}

// TestMatMulMatchesMatVecRows pins the batched kernels against the
// serial per-row matvec they replace: every element of MatMulNT(dst, a,
// b) must be bit-identical to b.MulVecAdd over a's row into a -0 seed
// (x + -0 is x for every x, so the seed adds nothing), and adding the
// bias afterwards must match a bias-seeded matvec, because the
// deterministic-replay guarantee of the engine depends on batched and
// serial scoring producing the same bytes. Shapes cross every edge of
// both kernels: M over 1..40 and 64 (the Go kernel's 4-row unroll, the
// AVX2 kernel's 16-lane blocks and its small-M crossover), K over
// {1, 16, 255, 256}, N ≡ 0, 1, 2 mod the AVX2 kernel's 3-row block.
func TestMatMulMatchesMatVecRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := []int{64}
	for m := 1; m <= 40; m++ {
		ms = append(ms, m)
	}
	negZero := math.Copysign(0, -1)
	for _, kernel := range matMulNTKernels() {
		name := kernel.name
		for _, m := range ms {
			for _, k := range []int{1, 16, 255, 256} {
				for r := 0; r < 3; r++ {
					n := 3*rng.Intn(12) + r
					if n == 0 {
						n = 3
					}
					nonFinite := rng.Intn(4) == 0
					a := specialMatrix(rng, m, k, nonFinite)
					b := specialMatrix(rng, n, k, nonFinite)
					bias := Vector(specialMatrix(rng, 1, n, false).Data)

					dst := GrowMatrix(nil, m, n)
					kernel.run(dst, a, b)
					plain := dst.Clone()
					AddBiasRows(dst, bias)

					want, wantBias := NewVector(n), NewVector(n)
					for i := 0; i < m; i++ {
						want.Fill(negZero)
						b.MulVecAdd(want, a.Row(i))
						copy(wantBias, bias)
						b.MulVecAdd(wantBias, a.Row(i))
						for j := range want {
							if got := plain.At(i, j); !sameBits(got, want[j]) {
								t.Fatalf("%s (m=%d n=%d k=%d): dst[%d][%d] = %v (%#x), serial matvec %v (%#x)",
									name, m, n, k, i, j, got, math.Float64bits(got), want[j], math.Float64bits(want[j]))
							}
							if got := dst.At(i, j); !sameBits(got, wantBias[j]) {
								t.Fatalf("%s (m=%d n=%d k=%d): dst+bias[%d][%d] = %v, serial matvec %v",
									name, m, n, k, i, j, got, wantBias[j])
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulNTDispatchesToAVX2 checks that the dispatcher really takes
// the assembly kernel at and above the crossover when the CPU has AVX2,
// so the bit-exactness test above is not silently pinning two copies of
// the Go kernel. It watches the packing buffer the AVX2 kernel grows.
func TestMatMulNTDispatchesToAVX2(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU without AVX2: MatMulNT always runs the Go kernel")
	}
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{matMulNTMinRows - 1, matMulNTMinRows, 17, 64} {
		a, b := randomMatrix(rng, m, 8), randomMatrix(rng, 5, 8)
		var pack []float64
		MatMulNTBuf(GrowMatrix(nil, m, 5), a, b, &pack)
		if used := pack != nil; used != (m >= matMulNTMinRows) {
			t.Errorf("M=%d: AVX2 kernel used = %v, crossover is %d", m, used, matMulNTMinRows)
		}
	}
}

func TestGrowMatrixReusesStorage(t *testing.T) {
	m := GrowMatrix(nil, 8, 8)
	if m.Rows != 8 || m.Cols != 8 || len(m.Data) != 64 {
		t.Fatalf("GrowMatrix(nil, 8, 8) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	data := &m.Data[0]
	shrunk := GrowMatrix(m, 4, 6)
	if shrunk != m || &shrunk.Data[0] != data {
		t.Fatal("GrowMatrix reallocated despite sufficient capacity")
	}
	if shrunk.Rows != 4 || shrunk.Cols != 6 || len(shrunk.Data) != 24 {
		t.Fatalf("shrunk shape %dx%d len %d", shrunk.Rows, shrunk.Cols, len(shrunk.Data))
	}
	grown := GrowMatrix(m, 16, 16)
	if grown.Rows != 16 || grown.Cols != 16 || len(grown.Data) != 256 {
		t.Fatalf("grown shape %dx%d len %d", grown.Rows, grown.Cols, len(grown.Data))
	}
}

func TestMatMulNTZeroAllocSteadyState(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(1)), 16, 24)
	b := randomMatrix(rand.New(rand.NewSource(2)), 48, 24)
	dst := GrowMatrix(nil, 16, 48)
	allocs := testing.AllocsPerRun(50, func() {
		dst = GrowMatrix(dst, 16, 48)
		MatMulNT(dst, a, b)
		AddBiasRows(dst, Vector(b.Data[:48]))
	})
	if allocs != 0 {
		t.Fatalf("MatMulNT steady state allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkMatMulNT times both f64 kernels at the serving shapes (M x K
// times N x K): the LSTM-256 recurrent GEMM of a 64-stream wave, the
// LSTM-256 output GEMM of a 32-stream wave over a 300-action vocabulary,
// and the LSTM-16 recurrent GEMM of a 32-stream wave. It reports
// multiply-adds per nanosecond and allocations per call.
func BenchmarkMatMulNT(b *testing.B) {
	kernels := []matMulNTKernel{{"go", matMulNTGo}}
	if hasAVX2 {
		var pack []float64
		kernels = append(kernels, matMulNTKernel{"avx2", func(dst, a, w *Matrix) { MatMulNTBuf(dst, a, w, &pack) }})
	}
	for _, s := range []struct{ m, k, n int }{{64, 256, 1024}, {32, 256, 300}, {32, 16, 64}} {
		rng := rand.New(rand.NewSource(1))
		a, w := randomMatrix(rng, s.m, s.k), randomMatrix(rng, s.n, s.k)
		dst := GrowMatrix(nil, s.m, s.n)
		for _, kernel := range kernels {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.k, s.n, kernel.name), func(b *testing.B) {
				kernel.run(dst, a, w) // grow the packing buffer
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernel.run(dst, a, w)
				}
				b.ReportMetric(float64(s.m*s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
			})
		}
	}
}
