package nn

// AVX2 versions of the streaming kernels, in kernels_amd64.s. They run
// four float64 lanes per instruction with the Go loops' operation order,
// and the Go loops still handle hosts without AVX2.

func init() {
	if cpuHasAVX2() {
		avx2 := kernelSet{
			name:  "avx2",
			axpy4: axpy4AVX2,
			axpy1: axpy1AVX2,
			adam:  adamAVX2,
			blend: blendAVX2,
		}
		hostKernels = append(hostKernels, avx2)
		kern = avx2
	}
}

// cpuHasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves
// the ymm registers (OSXSAVE set and XCR0 enabling SSE and AVX state).
func cpuHasAVX2() bool

//go:noescape
func axpy4AVX2(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX2(dst, b []float64, a float64)

//go:noescape
func adamAVX2(param, grad, m, v []float64, c *adamCoef)

//go:noescape
func blendAVX2(dst, src []float64, keep, tau float64)
