package tensor

import (
	"encoding/binary"
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
			for j := range m.Row(i) {
				m.Row(i)[j] = math.Copysign(0, -1)
			}
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

// matMulNTKernels lists every way a caller can reach an f64 a·bᵀ
// kernel: the dispatched entry points and both implementations called
// directly, the AVX2 one (where the CPU has it) at every row count —
// including the small ones the dispatcher keeps on the Go kernel — and
// the weight-stationary product from a packed b, dispatched and through
// its Go kernel.
func matMulNTKernels() []matMulNTKernel {
	var pack []float64
	kernels := []matMulNTKernel{
		{"MatMulNT", MatMulNT},
		{"MatMulNTBuf", func(dst, a, b *Matrix) { MatMulNTBuf(dst, a, b, &pack) }},
		{"go", matMulNTGo},
		{"MatMulWS", func(dst, a, b *Matrix) { matMulWSInto(dst, a, b, MatMulWS) }},
		{"ws-go", func(dst, a, b *Matrix) {
			matMulWSInto(dst, a, b, func(dst, a *Matrix, p *PackedNT) {
				matMulWSGo(dst.Data, dst.Cols, p.data, a.Data, a.Cols, a.Rows, p.stride/matMulNTLanes)
			})
		}},
	}
	if hasAVX2 {
		kernels = append(kernels, matMulNTKernel{"avx2", func(dst, a, b *Matrix) { matMulNTAVX2(dst, a, b, &pack) }})
	}
	return kernels
}

// matMulWSInto computes dst = a·bᵀ with a weight-stationary kernel on
// b packed by PackNT, copying the first b.Rows columns of its padded
// product into dst.
func matMulWSInto(dst, a, b *Matrix, ws func(dst, a *Matrix, p *PackedNT)) {
	p := PackNT(b)
	wide := GrowMatrix(nil, a.Rows, p.Stride())
	ws(wide, a, p)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), wide.Row(i)[:b.Rows])
	}
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
// {1, 16, 255, 256}, and N cycling through every residue mod 12 — so
// every residue mod the AVX2 kernel's 3-row block and mod the Go
// kernel's 4-row single-row tail — both within one 32-row block of b
// and across blocks.
func TestMatMulMatchesMatVecRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := []int{64}
	for m := 1; m <= 40; m++ {
		ms = append(ms, m)
	}
	negZero := math.Copysign(0, -1)
	cycle := 0
	for _, kernel := range matMulNTKernels() {
		name := kernel.name
		for _, m := range ms {
			for _, k := range []int{1, 16, 255, 256} {
				for q := 0; q < 4; q++ {
					n := 1 + cycle%12 + 12*rng.Intn(2)
					if (m+q)%2 == 1 {
						n += 32
					}
					cycle++
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
						for j := range want {
							want[j] = negZero
						}
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

// FuzzMatMulWSMatchesGo checks the weight-stationary product and the
// likelihood head on arbitrary float64 bit patterns (the fuzzed bytes
// fill a, b and the bias in order; seeded normal draws fill the rest):
// MatMulWS must give the Go MatMulNT kernel's bits in b's N columns and
// the Go weight-stationary kernel's bits in every column, padding
// included, and SoftmaxAt on its product must give Softmax(row +
// bias)[at]. N runs over 1..64, so most shapes leave a partial block of
// 16; K over 1..40; M over 0..7 rows.
func FuzzMatMulWSMatchesGo(f *testing.F) {
	var specials []byte
	for _, x := range expSpecials() {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(x))
	}
	f.Add(int64(1), uint8(29), uint8(12), uint8(3), []byte(nil))
	f.Add(int64(2), uint8(15), uint8(0), uint8(7), specials)
	f.Add(int64(3), uint8(63), uint8(39), uint8(1), specials[:64])
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, mRaw uint8, bits []byte) {
		n, k, m := 1+int(nRaw)%64, 1+int(kRaw)%40, int(mRaw)%8
		rng := rand.New(rand.NewSource(seed))
		next := func() float64 {
			if len(bits) >= 8 {
				x := math.Float64frombits(binary.LittleEndian.Uint64(bits))
				bits = bits[8:]
				return x
			}
			return rng.NormFloat64() * 3
		}
		a, b, bias := NewMatrix(m, k), NewMatrix(n, k), NewVector(n)
		for _, xs := range [][]float64{a.Data, b.Data, bias} {
			for i := range xs {
				xs[i] = next()
			}
		}
		want := NewMatrix(m, n)
		matMulNTGo(want, a, b)
		p := PackNT(b)
		got, twin := NewMatrix(m, p.Stride()), NewMatrix(m, p.Stride())
		MatMulWS(got, a, p)
		matMulWSGo(twin.Data, twin.Cols, p.data, a.Data, k, m, p.Stride()/matMulNTLanes)
		at := make([]int, m)
		for i := range at {
			at[i] = rng.Intn(n)
			for j, x := range got.Row(i) {
				if j < n && !sameBits(x, want.At(i, j)) {
					t.Fatalf("m=%d n=%d k=%d: MatMulWS[%d][%d] = %v, Go MatMulNT %v", m, n, k, i, j, x, want.At(i, j))
				}
				if !sameBits(x, twin.At(i, j)) {
					t.Fatalf("m=%d n=%d k=%d: MatMulWS[%d][%d] = %v, Go kernel %v", m, n, k, i, j, x, twin.At(i, j))
				}
			}
		}
		liks := make([]float64, m)
		SoftmaxAt(liks, got, bias, at)
		AddBiasRows(want, bias)
		for i, lik := range liks {
			probs := want.Row(i)
			Softmax(probs, probs)
			if !sameBits(lik, probs[at[i]]) {
				t.Fatalf("m=%d n=%d k=%d: row %d SoftmaxAt %v, Softmax %v", m, n, k, i, lik, probs[at[i]])
			}
		}
	})
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

// BenchmarkMatMulNT times the f64 kernels at the serving shapes (M x K
// times N x K): the LSTM-256 recurrent GEMM of a 64-stream wave, the
// LSTM-256 output GEMM of a 32-stream wave over a 300-action vocabulary,
// and the LSTM-16 recurrent GEMM of a 32-stream wave; then M = 1..4 at
// each K (16, 256) and N (64 or 300, 300 or 1024) a small wave gives,
// the measurement behind matMulNTMinRows. "avx2" is the assembly kernel
// called directly, below the crossover too; "ws" is MatMulWS on b
// packed once, timed at the output-layer shapes (N = 300). It reports
// multiply-adds per nanosecond and allocations per call.
func BenchmarkMatMulNT(b *testing.B) {
	type shape struct{ m, k, n int }
	shapes := []shape{{64, 256, 1024}, {32, 256, 300}, {32, 16, 64}}
	for _, kn := range []struct{ k, n int }{{16, 64}, {16, 300}, {256, 300}, {256, 1024}} {
		for m := 1; m <= 4; m++ {
			shapes = append(shapes, shape{m, kn.k, kn.n})
		}
	}
	var pack []float64
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(1))
		a, w := randomMatrix(rng, s.m, s.k), randomMatrix(rng, s.n, s.k)
		dst := GrowMatrix(nil, s.m, s.n)
		kernels := []matMulNTKernel{{"go", matMulNTGo}}
		if hasAVX2 {
			kernels = append(kernels, matMulNTKernel{"avx2", func(dst, a, w *Matrix) { matMulNTAVX2(dst, a, w, &pack) }})
		}
		if s.n == 300 {
			p := PackNT(w)
			wide := GrowMatrix(nil, s.m, p.Stride())
			kernels = append(kernels, matMulNTKernel{"ws", func(_, a, _ *Matrix) { MatMulWS(wide, a, p) }})
		}
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

// TestTransposeRows checks the gathered transpose element by element,
// for every row in order (nil rows) and for a reordered subset with a
// column offset, across row counts that leave each tail of the
// four-row unroll.
func TestTransposeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randomMatrix(rng, 11, 6)
	for _, k := range []int{1, 3, 4, 5, 11} {
		all := NewMatrix(6, 11)
		TransposeRows(all, src, nil, 0)
		for j := 0; j < 6; j++ {
			for kk := 0; kk < 11; kk++ {
				if all.At(j, kk) != src.At(kk, j) {
					t.Fatalf("nil rows: dst[%d][%d] = %v, want %v", j, kk, all.At(j, kk), src.At(kk, j))
				}
			}
		}
		rows := rng.Perm(11)[:k]
		dst := NewMatrix(4, k)
		TransposeRows(dst, src, rows, 2)
		for j := 0; j < 4; j++ {
			for kk, r := range rows {
				if dst.At(j, kk) != src.At(r, 2+j) {
					t.Fatalf("rows %v col0 2: dst[%d][%d] = %v, want %v", rows, j, kk, dst.At(j, kk), src.At(r, 2+j))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("columns past src must panic")
		}
	}()
	TransposeRows(NewMatrix(5, 2), src, []int{0, 1}, 2)
}
