//go:build !amd64

package tensor

// hasAVX2 is false off amd64: MatMulNT always runs the Go kernel.
const hasAVX2 = false

func matMulNTAVX2(dst, a, b *Matrix, pack *[]float64) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}
