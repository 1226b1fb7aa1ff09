//go:build !amd64

package tensor

// hasAVX2 is false off amd64: MatMulWS always runs the Go kernel.
const hasAVX2 = false

func matMulWS16(dst []float64, ldd int, pack, a []float64, k, m, blocks int) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}
