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

// matMulKernels lists every way a caller can reach the f64 a·bᵀ
// kernel: the one-shot MatMulNT, and MatMulWS on b packed by PackNT,
// on b packed by PackT from its transpose, and through the Go kernel
// called directly (the one off AVX2).
func matMulKernels() []matMulKernel {
	return []matMulKernel{
		{"MatMulNT", MatMulNT},
		{"MatMulWS", func(dst, a, b *Matrix) { matMulWSInto(dst, a, PackNT(b), MatMulWS) }},
		{"PackT", func(dst, a, b *Matrix) {
			var p PackedNT
			p.PackT(transpose(b), nil, b.Cols)
			matMulWSInto(dst, a, &p, MatMulWS)
		}},
		{"ws-go", func(dst, a, b *Matrix) { matMulWSInto(dst, a, PackNT(b), wsGo) }},
	}
}

// wsGo is MatMulWS run through the Go kernel whatever the CPU.
func wsGo(dst, a *Matrix, p *PackedNT) {
	matMulWSGo(dst.Data, dst.Cols, p.data, a.Data, a.Cols, a.Rows, p.stride/packLanes)
}

// matMulWSInto computes dst = a·bᵀ with a weight-stationary kernel on
// b packed in p, copying the first dst.Cols columns of its padded
// product into dst.
func matMulWSInto(dst, a *Matrix, p *PackedNT, ws func(dst, a *Matrix, p *PackedNT)) {
	wide := GrowMatrix(nil, a.Rows, p.Stride())
	ws(wide, a, p)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), wide.Row(i))
	}
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Set(j, i, v)
		}
	}
	return t
}

type matMulKernel struct {
	name string
	run  func(dst, a, b *Matrix)
}

// TestMatMulMatchesMatVecRows pins the batched kernel against the
// serial per-row matvec it replaces: every element of a·bᵀ must be
// bit-identical to b.MulVecAdd over a's row into a -0 seed
// (x + -0 is x for every x, so the seed adds nothing), and adding the
// bias afterwards must match a bias-seeded matvec, because the
// deterministic-replay guarantee of the engine depends on batched and
// serial scoring producing the same bytes. Shapes cross every edge of
// the kernels: M over 1..40 and 64 (every residue of the AVX2 kernel's
// 3-row unroll), K over {1, 16, 255, 256}, and N cycling through every
// residue mod 12, plus 0, 12 or 32 more, so b fills one to four 16-lane
// blocks, most of them partly.
func TestMatMulMatchesMatVecRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := []int{64}
	for m := 1; m <= 40; m++ {
		ms = append(ms, m)
	}
	negZero := math.Copysign(0, -1)
	cycle := 0
	for _, kernel := range matMulKernels() {
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
// MatMulWS must give the serial matvec's bits (MulVecAdd into a -0
// seed) in b's N columns and the Go kernel's bits in every column,
// padding included, and SoftmaxAt on its product must give Softmax(row
// + bias)[at]. N runs over 1..64, so most shapes leave a partial block of
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
		for i := 0; i < m; i++ {
			row := want.Row(i)
			for j := range row {
				row[j] = math.Copysign(0, -1)
			}
			b.MulVecAdd(row, a.Row(i))
		}
		p := PackNT(b)
		got, twin := NewMatrix(m, p.Stride()), NewMatrix(m, p.Stride())
		MatMulWS(got, a, p)
		wsGo(twin, a, p)
		at := make([]int, m)
		for i := range at {
			at[i] = rng.Intn(n)
			for j, x := range got.Row(i) {
				if j < n && !sameBits(x, want.At(i, j)) {
					t.Fatalf("m=%d n=%d k=%d: MatMulWS[%d][%d] = %v, serial matvec %v", m, n, k, i, j, x, want.At(i, j))
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

// TestMatMulWSZeroAllocSteadyState checks that repacking into a
// PackedNT that has held the shape before, and multiplying into a grown
// scratch, allocate nothing.
func TestMatMulWSZeroAllocSteadyState(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(1)), 16, 24)
	b := randomMatrix(rand.New(rand.NewSource(2)), 48, 24)
	var p, pt PackedNT
	p.Pack(b)
	pt.PackT(b, nil, 48)
	dst := GrowMatrix(nil, 16, p.Stride())
	allocs := testing.AllocsPerRun(50, func() {
		p.Pack(b)
		pt.PackT(b, []int{3, 1, 4}, 5)
		dst = GrowMatrix(dst, 16, p.Stride())
		MatMulWS(dst, a, &p)
		AddBiasRows(dst, Vector(b.Data[:48]))
	})
	if allocs != 0 {
		t.Fatalf("MatMulWS steady state allocated %.1f times per run, want 0", allocs)
	}
}

// TestPackTMatchesPackNT checks the transpose pack byte for byte
// against PackNT of the transpose built explicitly, pad lanes and all:
// every row of x in order and a reordered subset with repeats, at K
// equal to the row count and past it (zero columns), with x's column
// count (b's N) below, at and across a 16-lane block. PackT and Pack
// repack into storage left full of NaNs, so a lane either fails to
// write shows.
func TestPackTMatchesPackNT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dirty := func() PackedNT {
		data := make([]float64, 4096)
		for i := range data {
			data[i] = math.NaN()
		}
		return PackedNT{data: data}
	}
	same := func(got, want *PackedNT) bool {
		if got.rows != want.rows || got.cols != want.cols || got.stride != want.stride || len(got.data) != len(want.data) {
			return false
		}
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				return false
			}
		}
		return true
	}
	for _, n := range []int{1, 15, 16, 17, 40} {
		x := specialMatrix(rng, 9, n, true)
		for _, rows := range [][]int{nil, {8, 0, 3, 3, 5}} {
			picked := x
			if rows != nil {
				picked = NewMatrix(len(rows), n)
				for kk, r := range rows {
					copy(picked.Row(kk), x.Row(r))
				}
			}
			for _, extra := range []int{0, 3} {
				k := picked.Rows + extra
				bt := NewMatrix(n, k)
				for j := 0; j < n; j++ {
					for kk := 0; kk < picked.Rows; kk++ {
						bt.Set(j, kk, picked.At(kk, j))
					}
				}
				want := PackNT(bt)
				got, re := dirty(), dirty()
				got.PackT(x, rows, k)
				re.Pack(bt)
				if !same(&got, want) {
					t.Fatalf("n=%d rows=%v k=%d: PackT differs from PackNT of the transpose", n, rows, k)
				}
				if !same(&re, want) {
					t.Fatalf("n=%d rows=%v k=%d: Pack into used storage differs from PackNT", n, rows, k)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PackT into fewer columns than rows must panic")
		}
	}()
	new(PackedNT).PackT(NewMatrix(4, 2), nil, 3)
}

// TestMatMulNTCopiesOut checks the one-shot wrapper at N that is not a
// multiple of 16: dst is exactly M x N, its elements are the serial
// matvec's, and it writes nothing past its own rows.
func TestMatMulNTCopiesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 5, 17, 300} {
		a, b := randomMatrix(rng, 3, 7), randomMatrix(rng, n, 7)
		buf := NewMatrix(4, n)
		sentinel := math.Float64frombits(0x7ff8dead)
		for i := range buf.Data {
			buf.Data[i] = sentinel
		}
		dst := &Matrix{Rows: 3, Cols: n, Data: buf.Data[:3*n]}
		MatMulNT(dst, a, b)
		want := NewVector(n)
		for i := 0; i < 3; i++ {
			clear(want)
			b.MulVecAdd(want, a.Row(i))
			for j := range want {
				if got := dst.At(i, j); !sameBits(got, want[j]) {
					t.Fatalf("n=%d: dst[%d][%d] = %v, serial matvec %v", n, i, j, got, want[j])
				}
			}
		}
		for _, v := range buf.Data[3*n:] {
			if math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Fatalf("n=%d: MatMulNT wrote past dst", n)
			}
		}
	}
}

// BenchmarkMatMulWS times MatMulWS (M x K times N x K) on b packed
// once ("ws") and on b repacked into reused storage before every call
// ("pack+ws", what a product whose b changes between calls pays). The
// shapes: M = 1..32 rows of a serving wave at the LSTM-256 recurrent
// (K 256, N 1024) and output (K 256, N 300) products and at LSTM-16's
// recurrent one (K 16, N 64); the lockstep trainer's forward and
// backward recurrent products over 5, 13 and 32 live rows (256 x 1024
// and 1024 x 256), its output product over 1,600 rows; and its weight
// gradients at M = 4H and M = V over K = 1,600 rows, N = H (computed
// 64 rows of M per call in the trainer, whole here). It reports
// multiply-adds per nanosecond and allocations per call.
func BenchmarkMatMulWS(b *testing.B) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, kn := range []struct{ k, n int }{{256, 1024}, {256, 300}, {16, 64}} {
		for _, m := range []int{1, 2, 3, 4, 8, 16, 32} {
			shapes = append(shapes, shape{m, kn.k, kn.n})
		}
	}
	shapes = append(shapes, shape{5, 256, 1024}, shape{13, 256, 1024},
		shape{5, 1024, 256}, shape{13, 1024, 256}, shape{32, 1024, 256},
		shape{1600, 256, 300}, shape{1024, 1600, 256}, shape{300, 1600, 256})
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(1))
		a, w := randomMatrix(rng, s.m, s.k), randomMatrix(rng, s.n, s.k)
		p := PackNT(w)
		dst := GrowMatrix(nil, s.m, p.Stride())
		for _, perCall := range []bool{false, true} {
			name := "ws"
			if perCall {
				name = "pack+ws"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.k, s.n, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if perCall {
						p.Pack(w)
					}
					MatMulWS(dst, a, p)
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
