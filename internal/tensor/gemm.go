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
// block of fewer than matMulNTMinRows rows (a small chunk, or the tail
// of a ragged M), where it runs four b rows against each a row so four
// independent chains hide the add latency. On amd64 with AVX2 an
// assembly kernel vectorises across rows of a instead: 16 a rows are
// transposed into a packed block so one 4-wide vector holds column k of
// four rows, each b value is broadcast, and each lane runs its own
// scalar reduction — seeded with +0, ascending k, VMULPD then VADDPD,
// never a fused multiply-add — so every lane rounds exactly like the Go
// loop (the Go compiler does not fuse x*y+z on amd64 either).
//
// MatMulWS is the weight-stationary form of the same product, for a b
// that is fixed across many calls (a layer's weights): b is packed once
// into the 16-lane blocks (PackNT), and each block is swept against the
// rows of a with the lanes over b's rows. The kernel has two store
// layouts: matMulNT16 holds 16 rows of a in its lanes, so it writes a
// column of dst per b row and goes through a spill tile; matMulWS16
// holds 16 rows of b, so each a row's 16 lanes are 16 adjacent elements
// of its dst row and are stored straight there. Both share the k loop
// (the MAC3 and MAC1 macros), so each element is the same reduction.

// matMulNTBlockJ is the number of b rows processed per block: the block
// of the (shared, typically weight) operand streamed while several a
// rows are resident, sized so a block stays cache-warm across the whole
// a sweep for the hidden sizes this package serves.
const matMulNTBlockJ = 32

// matMulNTLanes is the number of a rows the AVX2 kernel packs per block.
const matMulNTLanes = 16

// matMulNTMinRows is the smallest block the AVX2 kernel takes. It always
// computes all 16 lanes, so below four rows the Go kernel is faster and
// at four it is about level (BenchmarkMatMulNT's M = 1..4 cases at K =
// 16 and 256, N = 64, 300 and 1024, on a 2-vCPU Xeon VM).
const matMulNTMinRows = 4

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

// PackedNT is the operand b of products a·bᵀ packed once for MatMulWS:
// b's rows, zero-padded to a multiple of 16, in blocks of 16 rows laid
// out k-major, lane r of column kk of block q at data[(q·K+kk)·16+r].
// It is the layout matMulNT16 builds from a on every call, built here
// from b once. A PackedNT is a copy: it does not follow later writes to
// b, and it is read-only, so any number of goroutines may share one.
type PackedNT struct {
	rows, cols, stride int
	data               []float64
}

// PackNT packs b (N x K) for MatMulWS.
func PackNT(b *Matrix) *PackedNT {
	k, stride := b.Cols, (b.Rows+matMulNTLanes-1)/matMulNTLanes*matMulNTLanes
	p := &PackedNT{rows: b.Rows, cols: k, stride: stride, data: make([]float64, stride*k)}
	for j0 := 0; j0 < b.Rows; j0 += matMulNTLanes {
		packBlock(p.data[j0*k:(j0+matMulNTLanes)*k], b.Data[j0*k:], min(matMulNTLanes, b.Rows-j0), k)
	}
	return p
}

// Stride is the row length MatMulWS's destination must have: b's row
// count rounded up to a multiple of 16.
func (p *PackedNT) Stride() int { return p.stride }

// packBlock transposes the first rows rows (at most 16) of src, each k
// long and row-major, into one 16-lane k-major block dst of 16·k
// values, zeroing the lanes past the last row.
func packBlock(dst, src []float64, rows, k int) {
	for r := 0; r < matMulNTLanes; r++ {
		if r < rows {
			for kk, v := range src[r*k : (r+1)*k] {
				dst[kk*matMulNTLanes+r] = v
			}
			continue
		}
		for kk := 0; kk < k; kk++ {
			dst[kk*matMulNTLanes+r] = 0
		}
	}
}

// MatMulWS computes dst = a * bᵀ from b packed by PackNT, where a is
// M x K and dst is M x p.Stride(): columns past b's N rows get the
// products of the zero padding and are left for the caller to ignore.
// Every element in the first N columns is bit-identical to MatMulNT's
// and so to the per-row MulVecAdd: one +0-seeded scalar over ascending
// k, whichever kernel runs. The AVX2 kernel takes every M, one row
// included, because its lanes run over b's rows; dst must not alias a.
func MatMulWS(dst, a *Matrix, p *PackedNT) {
	if a.Cols != p.cols || dst.Rows != a.Rows || dst.Cols != p.Stride() {
		panic(fmt.Sprintf("tensor: MatMulWS shape mismatch a=%dx%d b=%dx%d dst=%dx%d",
			a.Rows, a.Cols, p.rows, p.cols, dst.Rows, dst.Cols))
	}
	blocks := dst.Cols / matMulNTLanes
	if a.Rows == 0 || blocks == 0 {
		return
	}
	if hasAVX2 && a.Cols > 0 {
		matMulWS16(dst.Data, dst.Cols, p.data, a.Data, a.Cols, a.Rows, blocks)
		return
	}
	matMulWSGo(dst.Data, dst.Cols, p.data, a.Data, a.Cols, a.Rows, blocks)
}

// matMulWSGo is matMulWS16 in Go, the kernel off AVX2 and its test
// reference: for each packed block and each of the m rows of a (length
// k, contiguous), the 16 lanes Σ_kk pack[kk·16+r]·a[kk] go to 16
// adjacent elements of the row's dst row (stride ldd), each lane one
// +0-seeded chain over ascending kk.
func matMulWSGo(dst []float64, ldd int, pack, a []float64, k, m, blocks int) {
	for q := 0; q < blocks; q++ {
		blk := pack[q*matMulNTLanes*k : (q+1)*matMulNTLanes*k]
		for i := 0; i < m; i++ {
			var acc [matMulNTLanes]float64
			for kk, av := range a[i*k : (i+1)*k] {
				w := blk[kk*matMulNTLanes : (kk+1)*matMulNTLanes]
				for r := range acc {
					acc[r] += w[r] * av
				}
			}
			copy(dst[i*ldd+q*matMulNTLanes:], acc[:])
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
