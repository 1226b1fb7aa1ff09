//go:build amd64

package tensor

// hasAVX2 reports whether the CPU and the OS support the AVX2 kernel:
// CPUID advertises AVX and AVX2, and XCR0 shows the OS saves the SSE
// and AVX register state across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// matMulNT16 multiplies one packed block of 16 a rows by all n rows of b
// and writes the first rows lanes to dst: dst[r*ldd+j] = Σ_{kk<k}
// pack[kk*16+r]·b[j*k+kk] for r < rows, j < n. pack holds the block
// transposed (lane r of column kk at pack[kk*16+r]) followed by a
// 48-element tile the kernel spills its accumulators through. Every
// lane accumulates from +0 over ascending k with a separate multiply
// and add, so each element is bit-identical to the scalar reduction.
// rows must be in 1..16 and k at least 1.
//
//go:noescape
func matMulNT16(dst []float64, ldd, rows int, pack, b []float64, k, n int)

// matMulNTAVX2 runs dst = a * bᵀ through matMulNT16, one 16-row block
// of a at a time: each block is transposed into *pack (zero-padded past
// the last row of a) and swept against every row of b. a.Cols must be
// at least 1.
func matMulNTAVX2(dst, a, b *Matrix, pack *[]float64) {
	k, n := a.Cols, b.Rows
	need := matMulNTLanes*k + matMulNTLanes*3
	if cap(*pack) < need {
		*pack = make([]float64, need)
	}
	p := (*pack)[:need]
	bd := b.Data[:n*k]
	for i0 := 0; i0 < a.Rows; i0 += matMulNTLanes {
		rows := min(matMulNTLanes, a.Rows-i0)
		packBlock(p, a.Data[i0*k:], rows, k)
		matMulNT16(dst.Data[i0*dst.Cols:(i0+rows-1)*dst.Cols+n], dst.Cols, rows, p, bd, k, n)
	}
}

// matMulWS16 sweeps blocks packed 16-row blocks of b (pack, as PackNT
// lays them out) against the m rows of a (length k, contiguous): for
// each block q and row i it stores the 16 lanes Σ_{kk<k}
// pack[(q·k+kk)·16+r]·a[i·k+kk] at dst[i·ldd+q·16+r], straight from the
// accumulators. Each lane rounds like matMulNT16's. m, k and blocks must
// be at least 1, and ldd at least 16·blocks.
//
//go:noescape
func matMulWS16(dst []float64, ldd int, pack, a []float64, k, m, blocks int)
