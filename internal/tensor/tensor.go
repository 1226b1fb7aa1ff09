// Package tensor provides the dense linear-algebra primitives used by the
// learning components of the library: float64 vectors and row-major
// matrices together with the handful of kernels (matrix products, stable
// softmax) that the LSTM, LDA and OC-SVM implementations need.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: every routine that can write into a
// caller-provided destination does so, and the hot kernels are written so
// the Go compiler can keep the inner loops bounds-check free.
package tensor

import "fmt"

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// AddScaled adds alpha*w to v in place (axpy).
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ArgMax returns the index of the largest element of v, or -1 when v is
// empty. Ties resolve to the lowest index.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best, bestIdx := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bestIdx = x, i+1
		}
	}
	return bestIdx
}

// Softmax writes the softmax of src into dst using the max-shift trick for
// numerical stability. dst and src may alias. It panics on length mismatch.
func Softmax(dst, src Vector) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Softmax length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	maxVal := src[0]
	for _, x := range src[1:] {
		if x > maxVal {
			maxVal = x
		}
	}
	for i, x := range src {
		dst[i] = x - maxVal
	}
	ExpInto(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxAt sets dst[i] to Softmax(row i of logits + bias)[at[i]], bit
// for bit, for every row, without the distribution's normalize pass:
// each row is biased (x = logit + bias, AddBiasRows' add) in its max
// pass, shifted, exponentiated, summed in one ascending chain, and the
// one wanted exp is scaled by 1/sum. Only the first len(bias) columns of
// logits are read; they are overwritten with the exps. Rows run four at
// a time so four independent max and sum chains overlap, each in its
// row's own order; two or three rows left over run as a pair, then one.
// It panics on a shape mismatch or an at[i] outside bias.
func SoftmaxAt(dst []float64, logits *Matrix, bias Vector, at []int) {
	v, rows := len(bias), logits.Rows
	if len(dst) != rows || len(at) != rows || v == 0 || v > logits.Cols {
		panic(fmt.Sprintf("tensor: SoftmaxAt shape mismatch logits=%dx%d bias=%d at=%d dst=%d",
			logits.Rows, logits.Cols, v, len(at), len(dst)))
	}
	row := func(i int) []float64 {
		if at[i] < 0 || at[i] >= v {
			panic(fmt.Sprintf("tensor: SoftmaxAt index %d outside %d", at[i], v))
		}
		return logits.Data[i*logits.Cols : i*logits.Cols+v]
	}
	bias = bias[:v]
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
		r0, r1, r2, r3 = r0[:v], r1[:v], r2[:v], r3[:v] // for the prover
		b := bias[0]
		m0, m1, m2, m3 := r0[0]+b, r1[0]+b, r2[0]+b, r3[0]+b
		r0[0], r1[0], r2[0], r3[0] = m0, m1, m2, m3
		for j := 1; j < v; j++ {
			b := bias[j]
			x0, x1, x2, x3 := r0[j]+b, r1[j]+b, r2[j]+b, r3[j]+b
			r0[j], r1[j], r2[j], r3[j] = x0, x1, x2, x3
			if x0 > m0 {
				m0 = x0
			}
			if x1 > m1 {
				m1 = x1
			}
			if x2 > m2 {
				m2 = x2
			}
			if x3 > m3 {
				m3 = x3
			}
		}
		for j := range r0 {
			r0[j] -= m0
			r1[j] -= m1
			r2[j] -= m2
			r3[j] -= m3
		}
		ExpInto(r0, r0)
		ExpInto(r1, r1)
		ExpInto(r2, r2)
		ExpInto(r3, r3)
		var s0, s1, s2, s3 float64
		for j := range r0 {
			s0 += r0[j]
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[i] = r0[at[i]] * (1 / s0)
		dst[i+1] = r1[at[i+1]] * (1 / s1)
		dst[i+2] = r2[at[i+2]] * (1 / s2)
		dst[i+3] = r3[at[i+3]] * (1 / s3)
	}
	// Two rows left over run as a pair, so two max and two sum chains
	// overlap; each row still keeps its own ascending order.
	if i+2 <= rows {
		r0, r1 := row(i), row(i+1)
		r0, r1 = r0[:v], r1[:v] // for the prover
		b := bias[0]
		m0, m1 := r0[0]+b, r1[0]+b
		r0[0], r1[0] = m0, m1
		for j := 1; j < v; j++ {
			b := bias[j]
			x0, x1 := r0[j]+b, r1[j]+b
			r0[j], r1[j] = x0, x1
			if x0 > m0 {
				m0 = x0
			}
			if x1 > m1 {
				m1 = x1
			}
		}
		for j := range r0 {
			r0[j] -= m0
			r1[j] -= m1
		}
		ExpInto(r0, r0)
		ExpInto(r1, r1)
		var s0, s1 float64
		for j := range r0 {
			s0 += r0[j]
			s1 += r1[j]
		}
		dst[i] = r0[at[i]] * (1 / s0)
		dst[i+1] = r1[at[i+1]] * (1 / s1)
		i += 2
	}
	if i < rows {
		r := row(i)
		m := r[0] + bias[0]
		r[0] = m
		for j := 1; j < v; j++ {
			x := r[j] + bias[j]
			r[j] = x
			if x > m {
				m = x
			}
		}
		for j := range r {
			r[j] -= m
		}
		ExpInto(r, r)
		var s float64
		for _, e := range r {
			s += e
		}
		dst[i] = r[at[i]] * (1 / s)
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vector sharing the matrix's backing storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// MulVecAdd computes dst += m * x.
func (m *Matrix) MulVecAdd(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecAdd shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] += s
	}
}

// MulVecTAdd computes dst += mᵀ * x.
func (m *Matrix) MulVecTAdd(dst, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecTAdd shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += xi * w
		}
	}
}

// AddOuter adds alpha * x yᵀ to m, where x has length m.Rows and y has
// length m.Cols. This is the rank-1 update used by backpropagation.
func (m *Matrix) AddOuter(alpha float64, x, y Vector) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch m=%dx%d x=%d y=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		axi := alpha * x[i]
		if axi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}
