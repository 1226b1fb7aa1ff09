//go:build !amd64

package tensor

// hasAVX2 is false off amd64: MatMulNT and MatMulWS always run the Go
// kernels.
const hasAVX2 = false

func matMulNTAVX2(dst, a, b *Matrix, pack *[]float64) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}

func matMulWS16(dst []float64, ldd int, pack, a []float64, k, m, blocks int) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}
