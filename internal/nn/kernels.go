package nn

import "math"

// The streaming loops of one training update: the row axpys of the
// forward and weight-gradient products, the Adam element update and the
// target-network blend. Each has a portable Go loop here; an amd64 host
// with AVX2 runs assembly versions instead (kernels_amd64.go), chosen once
// at init.
//
// Bit identity. An assembly kernel performs, in every lane, the same IEEE
// operations in the same order as the Go loop: a multiply and a separate
// add, subtract, divide or square root, never a fused multiply-add. Each
// product in the Go loops is wrapped in an explicit float64(...) so that
// no compiler may fuse it into the following add either (the spec allows
// fusing x*y + z otherwise, and arm64 does). Both paths therefore give the
// same bits, and the portable one serves as the oracle in the tests.
// scripts/check_nofma.sh fails if a fused op appears in the arm64 build.

// kernelSet is one implementation of the streaming loops. Every slice
// argument must be at least as long as the first; callers re-slice, and
// the kernels read and write exactly len(first) elements.
type kernelSet struct {
	name string
	// axpy4 applies dst[j] += a0·b0[j], += a1·b1[j], += a2·b2[j],
	// += a3·b3[j], in that order, for every j.
	axpy4 func(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
	// axpy1 applies dst[j] += a·b[j].
	axpy1 func(dst, b []float64, a float64)
	// adam applies the bias-corrected Adam update to param, m and v.
	adam func(param, grad, m, v []float64, c *adamCoef)
	// blend sets dst[j] = keep·dst[j] + tau·src[j].
	blend func(dst, src []float64, keep, tau float64)
}

// adamCoef holds the per-step constants of the Adam element update. The
// field order is the assembly's layout.
type adamCoef struct {
	b1, b2, ob1, ob2, c1, c2, lr, eps float64
}

var portableKernels = kernelSet{
	name:  "portable",
	axpy4: axpy4Go,
	axpy1: axpy1Go,
	adam:  adamGo,
	blend: blendGo,
}

// kern is the kernel set the package runs: the fastest one in
// hostKernels, chosen at init.
var kern = portableKernels

// hostKernels lists every kernel set this host can run, portable first.
var hostKernels = []kernelSet{portableKernels}

func axpy4Go(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j := range dst {
		d := dst[j]
		d += float64(a0 * b0[j])
		d += float64(a1 * b1[j])
		d += float64(a2 * b2[j])
		d += float64(a3 * b3[j])
		dst[j] = d
	}
}

func axpy1Go(dst, b []float64, a float64) {
	b = b[:len(dst)]
	for j := range dst {
		dst[j] += float64(a * b[j])
	}
}

func adamGo(param, grad, m, v []float64, c *adamCoef) {
	grad, m, v = grad[:len(param)], m[:len(param)], v[:len(param)]
	b1, b2, ob1, ob2, c1, c2, lr, eps := c.b1, c.b2, c.ob1, c.ob2, c.c1, c.c2, c.lr, c.eps
	for i := range param {
		g := grad[i]
		mi := float64(b1*m[i]) + float64(ob1*g)
		vi := float64(b2*v[i]) + float64(float64(ob2*g)*g)
		m[i], v[i] = mi, vi
		mHat := mi / c1
		vHat := vi / c2
		param[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

func blendGo(dst, src []float64, keep, tau float64) {
	src = src[:len(dst)]
	for i, v := range dst {
		dst[i] = float64(keep*v) + float64(tau*src[i])
	}
}
