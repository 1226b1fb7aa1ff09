package tensor

import "fmt"

// This file holds the batched kernels behind the cross-session
// micro-batched LSTM path and lockstep training. Their contract is
// stricter than speed: every output element must be bit-identical to
// what the serial per-row matvec (MulVecAdd) produces, so the engine's
// deterministic-replay mode stays byte-stable whether streams are
// advanced one at a time or in a fused batch, and lockstep training
// keeps the scalar trainer's bits. That pins the implementation to one
// rule — each output element is a single dot product accumulated in one
// scalar over ascending k, never split into partial sums. Blocking and
// unrolling therefore happen only over the output dimensions; the
// reduction dimension is never tiled.
//
// There is one kernel, MatMulWS: dst = a·bᵀ with b packed (PackNT, or
// PackT from its transpose) into blocks of 16 rows laid out k-major, so
// each block is swept against the rows of a with 16 lanes over b's rows.
// The AVX2 assembly (matMulWS16) holds one block in 16 lanes of four
// 4-wide vectors and three rows of a in broadcasts, so a row's 16 lanes
// are 16 adjacent elements of its dst row and are stored straight
// there. Each lane is seeded with +0 and runs ascending k with VMULPD
// then VADDPD, never a fused multiply-add, so it rounds exactly like
// the Go loop (the Go compiler does not fuse x*y+z on amd64 either).
// matMulWSGo is the same reduction in Go: the kernel off AVX2 and the
// assembly's test reference.

// packLanes is the number of b rows a packed block holds: one AVX2
// lane per row, four 4-wide vectors.
const packLanes = 16

// MatMulNT computes dst = a * bᵀ where a is M x K, b is N x K and dst is
// M x N, for a b used once: it packs b, runs MatMulWS into a padded
// temporary and copies the first N columns of each row out, allocating
// both. A caller that multiplies by the same b again packs it once and
// calls MatMulWS. dst[i][j] is bit-identical to the per-row
// accumulation of MulVecAdd.
func MatMulNT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNT shape mismatch a=%dx%d b=%dx%d dst=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	p := PackNT(b)
	wide := NewMatrix(a.Rows, p.Stride())
	MatMulWS(wide, a, p)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), wide.Row(i))
	}
}

// PackedNT is the operand b of products a·bᵀ packed for MatMulWS: b's
// rows, zero-padded to a multiple of 16, in blocks of 16 rows laid out
// k-major, lane r of column kk of block q at data[(q·K+kk)·16+r]. A
// PackedNT is a copy: it does not follow later writes to b. Pack and
// PackT repack one in place, reusing its storage; between repacks it is
// read-only, so any number of goroutines may share one.
type PackedNT struct {
	rows, cols, stride int
	data               []float64
}

// PackNT packs b (N x K) for MatMulWS into new storage.
func PackNT(b *Matrix) *PackedNT {
	p := new(PackedNT)
	p.Pack(b)
	return p
}

// Stride is the row length MatMulWS's destination must have: b's row
// count rounded up to a multiple of 16.
func (p *PackedNT) Stride() int { return p.stride }

// reshape sizes p for an n x k operand, reusing its storage, and
// returns its data.
func (p *PackedNT) reshape(n, k int) []float64 {
	p.rows, p.cols, p.stride = n, k, (n+packLanes-1)/packLanes*packLanes
	if cap(p.data) < p.stride*k {
		p.data = make([]float64, p.stride*k)
	}
	p.data = p.data[:p.stride*k]
	return p.data
}

// Pack packs b (N x K) into p: each block is b's 16 rows transposed,
// the lanes past b's last row zero.
func (p *PackedNT) Pack(b *Matrix) {
	k := b.Cols
	data := p.reshape(b.Rows, k)
	clear(data[b.Rows/packLanes*packLanes*k:])
	for j := 0; j < b.Rows; j++ {
		blk, r := data[(j-j%packLanes)*k:], j%packLanes
		for kk, v := range b.Data[j*k : (j+1)*k] {
			blk[kk*packLanes+r] = v
		}
	}
}

// PackT packs b = xᵀ into p, read through the rows of x listed in rows
// (nil lists every row of x in order): b has x.Cols rows and k columns,
// b[j][kk] = x[rows[kk]][j] for kk < len(rows) and 0 past them, so k
// must be at least len(rows). It is the layout Pack gives the
// transposed matrix, bit for bit, built without one: lane r of column kk
// of block q is x[rows[kk]][16q+r], so each column of a block is 16
// adjacent values of one row of x.
func (p *PackedNT) PackT(x *Matrix, rows []int, k int) {
	nk := len(rows)
	if rows == nil {
		nk = x.Rows
	}
	if k < nk {
		panic(fmt.Sprintf("tensor: PackT of %d rows into %d columns", nk, k))
	}
	n := x.Cols
	data := p.reshape(n, k)
	for j0 := 0; j0 < n; j0 += packLanes {
		blk := data[j0*k : (j0+packLanes)*k]
		w := min(packLanes, n-j0)
		for kk := 0; kk < nk; kk++ {
			r := kk
			if rows != nil {
				r = rows[kk]
			}
			col := blk[kk*packLanes : (kk+1)*packLanes]
			copy(col, x.Data[r*n+j0:r*n+j0+w])
			clear(col[w:])
		}
		clear(blk[nk*packLanes:])
	}
}

// MatMulWS computes dst = a * bᵀ from b packed by PackNT, where a is
// M x K and dst is M x p.Stride(): columns past b's N rows get the
// products of the zero padding and are left for the caller to ignore.
// Every element in the first N columns is bit-identical to the per-row
// MulVecAdd: one +0-seeded scalar over ascending k, whichever kernel
// runs. The AVX2 kernel takes every M, one row included, because its
// lanes run over b's rows; dst must not alias a.
func MatMulWS(dst, a *Matrix, p *PackedNT) {
	if a.Cols != p.cols || dst.Rows != a.Rows || dst.Cols != p.Stride() {
		panic(fmt.Sprintf("tensor: MatMulWS shape mismatch a=%dx%d b=%dx%d dst=%dx%d",
			a.Rows, a.Cols, p.rows, p.cols, dst.Rows, dst.Cols))
	}
	blocks := dst.Cols / packLanes
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
		blk := pack[q*packLanes*k : (q+1)*packLanes*k]
		for i := 0; i < m; i++ {
			var acc [packLanes]float64
			for kk, av := range a[i*k : (i+1)*k] {
				w := blk[kk*packLanes : (kk+1)*packLanes]
				for r := range acc {
					acc[r] += w[r] * av
				}
			}
			copy(dst[i*ldd+q*packLanes:], acc[:])
		}
	}
}

// AddBiasRows adds bias to the first len(bias) columns of every row of
// m in place (a MatMulWS product's padding is left alone): the batched
// counterpart of seeding a matvec destination with the bias vector.
// Because IEEE-754 addition of two operands is commutative,
// computing dot-then-add-bias here is bit-identical to the serial
// copy-bias-then-MulVecAdd order.
func AddBiasRows(m *Matrix, bias Vector) {
	if len(bias) > m.Cols {
		panic(fmt.Sprintf("tensor: AddBiasRows length mismatch m=%dx%d bias=%d",
			m.Rows, m.Cols, len(bias)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : i*m.Cols+len(bias)]
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
// gradient Σ_k dyₖ xₖᵀ, in the K-minor form MatMulWS reads as its a
// operand, with the rows in the order the reduction must visit them.
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
