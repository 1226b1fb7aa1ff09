package tensor

import (
	"fmt"
	"sync"
)

// This file holds the batched inference kernels behind the cross-session
// micro-batched LSTM path. Their contract is stricter than speed: every
// output element must be bit-identical to what the serial per-row matvec
// (MulVecAdd) produces, so the engine's deterministic-replay mode stays
// byte-stable whether streams are advanced one at a time or in a fused
// batch. That pins the implementation to one rule — each output element
// is a single dot product accumulated in one scalar over ascending k,
// never split into partial sums. Blocking and unrolling therefore happen
// only over the output dimensions (rows of a, rows of b); the reduction
// dimension is never tiled.
//
// MatMulNT has two implementations that obey that rule. The Go kernel
// below is the portable one and the reference; it also serves every
// single-row block (a one-stream chunk, or the last row of a ragged M),
// where it runs four b rows against the one a row so four independent
// chains hide the add latency. On amd64 with AVX2 an
// assembly kernel vectorises across rows of a instead: 16 a rows are
// transposed into a packed block so one 4-wide vector holds column k of
// four rows, each b value is broadcast, and each lane runs its own
// scalar reduction — seeded with +0, ascending k, VMULPD then VADDPD,
// never a fused multiply-add — so every lane rounds exactly like the Go
// loop (the Go compiler does not fuse x*y+z on amd64 either).

// matMulNTBlockJ is the number of b rows processed per block: the block
// of the (shared, typically weight) operand streamed while several a
// rows are resident, sized so a block stays cache-warm across the whole
// a sweep for the hidden sizes this package serves.
const matMulNTBlockJ = 32

// matMulNTLanes is the number of a rows the AVX2 kernel packs per block.
const matMulNTLanes = 16

// matMulNTMinRows is the smallest block the AVX2 kernel takes. It always
// computes all 16 lanes, so one row costs it about 1.5x what the Go
// kernel needs; from two rows on it is level or ahead (measured at
// K = 16 and 256, N = 64, 300 and 1024 on a 2-vCPU Xeon VM).
const matMulNTMinRows = 2

// packPool supplies packing buffers to MatMulNT callers that bring none.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// MatMulNT computes dst = a * bᵀ where a is M x K, b is N x K and dst is
// M x N. Both operands are walked along contiguous rows, which is why the
// batched LSTM keeps its packed stream states and its weight matrices in
// the same row-major K-minor layout. dst must be preallocated (see
// GrowMatrix for a reusable scratch) and must not alias a or b.
//
// dst[i][j] is bit-identical to the per-row accumulation of MulVecAdd,
// because each element is reduced in one scalar over ascending k,
// whichever kernel runs. The AVX2 kernel packs a through a pooled
// buffer; MatMulNTBuf takes a caller-owned one.
func MatMulNT(dst, a, b *Matrix) { MatMulNTBuf(dst, a, b, nil) }

// MatMulNTBuf is MatMulNT with a caller-owned packing buffer: *pack is
// grown on demand (to 16·(K+3) values) and reused, so a caller that
// keeps one buffer per goroutine never allocates in steady state. A nil
// pack borrows one from a shared pool.
func MatMulNTBuf(dst, a, b *Matrix, pack *[]float64) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNT shape mismatch a=%dx%d b=%dx%d dst=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// The AVX2 kernel always computes 16 lanes, so a last block of fewer
	// than matMulNTMinRows rows (all of a, when M is that small) stays on
	// the Go kernel.
	vec := 0
	if hasAVX2 && a.Cols > 0 {
		vec = a.Rows - a.Rows%matMulNTLanes
		if a.Rows-vec >= matMulNTMinRows {
			vec = a.Rows
		}
	}
	if vec > 0 {
		if pack == nil {
			p := packPool.Get().(*[]float64)
			defer packPool.Put(p)
			pack = p
		}
		matMulNTAVX2(rowRange(dst, 0, vec), rowRange(a, 0, vec), b, pack)
	}
	if vec < a.Rows {
		matMulNTGo(rowRange(dst, vec, a.Rows), rowRange(a, vec, a.Rows), b)
	}
}

// rowRange returns the view of rows [lo, hi) of m, sharing its storage.
func rowRange(m *Matrix, lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// matMulNTGo is the portable MatMulNT kernel. It blocks over rows of b
// and unrolls four rows of a against each b row, so one loaded b value
// feeds four independent accumulators; the last M mod 4 rows of a run
// one at a time against four rows of b, so the one loaded a value feeds
// four. Either way each accumulator is one element's ascending-k chain.
func matMulNTGo(dst, a, b *Matrix) {
	k := a.Cols
	for j0 := 0; j0 < b.Rows; j0 += matMulNTBlockJ {
		j1 := j0 + matMulNTBlockJ
		if j1 > b.Rows {
			j1 = b.Rows
		}
		i := 0
		for ; i+4 <= a.Rows; i += 4 {
			a0 := a.Data[(i+0)*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			a2 := a.Data[(i+2)*k : (i+3)*k]
			a3 := a.Data[(i+3)*k : (i+4)*k]
			for j := j0; j < j1; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var s0, s1, s2, s3 float64
				for kk, bv := range brow {
					s0 += a0[kk] * bv
					s1 += a1[kk] * bv
					s2 += a2[kk] * bv
					s3 += a3[kk] * bv
				}
				dst.Data[(i+0)*dst.Cols+j] = s0
				dst.Data[(i+1)*dst.Cols+j] = s1
				dst.Data[(i+2)*dst.Cols+j] = s2
				dst.Data[(i+3)*dst.Cols+j] = s3
			}
		}
		for ; i < a.Rows; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0 := b.Data[(j+0)*k : (j+1)*k]
				b1 := b.Data[(j+1)*k : (j+2)*k]
				b2 := b.Data[(j+2)*k : (j+3)*k]
				b3 := b.Data[(j+3)*k : (j+4)*k]
				var s0, s1, s2, s3 float64
				for kk, av := range arow {
					s0 += av * b0[kk]
					s1 += av * b1[kk]
					s2 += av * b2[kk]
					s3 += av * b3[kk]
				}
				drow[j+0] = s0
				drow[j+1] = s1
				drow[j+2] = s2
				drow[j+3] = s3
			}
			for ; j < j1; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var s float64
				for kk, bv := range brow {
					s += arow[kk] * bv
				}
				drow[j] = s
			}
		}
	}
}

// AddBiasRows adds bias (length m.Cols) to every row of m in place: the
// batched counterpart of seeding a matvec destination with the bias
// vector. Because IEEE-754 addition of two operands is commutative,
// computing dot-then-add-bias here is bit-identical to the serial
// copy-bias-then-MulVecAdd order.
func AddBiasRows(m *Matrix, bias Vector) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBiasRows length mismatch m=%dx%d bias=%d",
			m.Rows, m.Cols, len(bias)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range bias {
			row[j] += b
		}
	}
}

// GrowMatrix reshapes m to rows x cols, reusing its backing storage when
// the capacity suffices and reallocating otherwise — the reusable output
// scratch for the batched kernels. The returned matrix's contents are
// unspecified (every kernel here overwrites its destination). A nil m
// allocates fresh.
func GrowMatrix(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: GrowMatrix negative shape %dx%d", rows, cols))
	}
	if m == nil {
		return NewMatrix(rows, cols)
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// TransposeRows writes columns [col0, col0+dst.Rows) of the rows of src
// listed in rows, transposed, into dst: dst[j][k] = src[rows[k]][col0+j].
// A nil rows lists every row of src in order. It lays out the operands
// of a product whose reduction runs over rows of src, such as a weight
// gradient Σ_k dyₖ xₖᵀ, in the K-minor form MatMulNT reads, with the
// rows in the order the reduction must visit them.
func TransposeRows(dst, src *Matrix, rows []int, col0 int) {
	k, m := len(rows), dst.Rows
	if rows == nil {
		k = src.Rows
	}
	if dst.Cols != k || col0 < 0 || col0+m > src.Cols {
		panic(fmt.Sprintf("tensor: TransposeRows shape mismatch dst=%dx%d src=%dx%d rows=%d col0=%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols, k, col0))
	}
	row := func(kk int) []float64 {
		r := kk
		if rows != nil {
			r = rows[kk]
		}
		return src.Data[r*src.Cols+col0 : r*src.Cols+col0+m]
	}
	// Four source rows at a time, so every dst row receives four
	// adjacent values per pass.
	kk := 0
	for ; kk+4 <= k; kk += 4 {
		s0, s1, s2, s3 := row(kk), row(kk+1), row(kk+2), row(kk+3)
		for j := range s0 {
			d := dst.Data[j*k+kk : j*k+kk+4]
			d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
		}
	}
	for ; kk < k; kk++ {
		for j, v := range row(kk) {
			dst.Data[j*k+kk] = v
		}
	}
}
