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
