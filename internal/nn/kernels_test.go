package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachKernelSet runs f as one subtest per kernel set the host has, with
// kern switched to that set, and restores the default afterwards.
func forEachKernelSet(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := kern
	defer func() { kern = saved }()
	for _, ks := range hostKernels {
		kern = ks
		t.Run(ks.name, f)
	}
}

// kernelLens covers the empty slice, every tail length around the 4-lane
// body, and the layer widths of the TPC-DS network.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 128, 195, 211}

// edgeVec fills a vector whose entries cycle through the operands that
// expose a reordered or fused rounding: ±0, subnormals, huge and tiny
// magnitudes, and ordinary values spread over 2^±20.
func edgeVec(n int, rng *rand.Rand) []float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e-300, 1e-150, -3e154}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = edges[rng.Intn(len(edges))]
		} else {
			v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
		}
	}
	return v
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), portable %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestKernelsMatchPortable(t *testing.T) {
	// Every kernel set must give the portable loops' bits exactly.
	if len(hostKernels) == 1 {
		t.Skip("this host runs only the portable kernels")
	}
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	rng := rand.New(rand.NewSource(13))
	for _, ks := range hostKernels[1:] {
		for _, n := range kernelLens {
			name := fmt.Sprintf("%s len=%d", ks.name, n)
			dst, b0, b1, b2, b3 := edgeVec(n, rng), edgeVec(n, rng), edgeVec(n, rng), edgeVec(n, rng), edgeVec(n, rng)
			a := edgeVec(4, rng)

			got, want := clone(dst), clone(dst)
			ks.axpy4(got, b0, b1, b2, b3, a[0], a[1], a[2], a[3])
			axpy4Go(want, b0, b1, b2, b3, a[0], a[1], a[2], a[3])
			requireSameBits(t, "axpy4 "+name, got, want)

			got, want = clone(dst), clone(dst)
			ks.axpy1(got, b0, a[0])
			axpy1Go(want, b0, a[0])
			requireSameBits(t, "axpy1 "+name, got, want)

			got, want = clone(dst), clone(dst)
			ks.blend(got, b0, 1-1e-3, 1e-3)
			blendGo(want, b0, 1-1e-3, 1e-3)
			requireSameBits(t, "blend "+name, got, want)

			// Adam: gradients include exact zeros; second moments are
			// non-negative, as training keeps them.
			grad := edgeVec(n, rng)
			for i := range grad {
				if i%5 == 0 {
					grad[i] = 0
				}
			}
			m, v := edgeVec(n, rng), edgeVec(n, rng)
			for i := range v {
				v[i] = math.Abs(v[i])
			}
			for _, step := range []int{1, 2, 1000} {
				c := NewAdam(5e-4).coefAt(step)
				gp, gm, gv := clone(dst), clone(m), clone(v)
				wp, wm, wv := clone(dst), clone(m), clone(v)
				ks.adam(gp, grad, gm, gv, &c)
				adamGo(wp, grad, wm, wv, &c)
				what := fmt.Sprintf("adam %s step=%d", name, step)
				requireSameBits(t, what+" param", gp, wp)
				requireSameBits(t, what+" m", gm, wm)
				requireSameBits(t, what+" v", gv, wv)
			}
		}
	}
}

// tpcdsDims is the TPC-DS Q-network: 211 state features, the paper's
// 128-64 hidden layers and 195 actions.
var tpcdsDims = []int{211, 128, 64, 195}

// dqnBatch fills in with State.Encode-like rows (one-hot blocks plus a
// few fractional frequency features) and gives each row one masked
// action with a target.
func dqnBatch(in, target, mask *Matrix, rng *rand.Rand) {
	in.Zero()
	target.Zero()
	mask.Zero()
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		for b := 0; b < 20; b++ {
			row[rng.Intn(len(row))] = 1
		}
		for f := 0; f < 8; f++ {
			row[rng.Intn(len(row))] = rng.Float64()
		}
		a := rng.Intn(target.Cols)
		target.Set(i, a, rng.NormFloat64())
		mask.Set(i, a, 1)
	}
}

// trainBatchFull is TrainBatch with the full output forward: the reference
// the masked output forward must reproduce bit for bit.
func trainBatchFull(n *Network, opt Optimizer, in, target, mask *Matrix) {
	out := n.Forward(in)
	grad := NewMatrix(out.Rows, out.Cols)
	count := 0.0
	for i := range out.Data {
		if mask.Data[i] != 0 {
			grad.Data[i] = 2 * (out.Data[i] - target.Data[i])
			count++
		}
	}
	for i := range grad.Data {
		grad.Data[i] /= count
	}
	n.Backward(grad)
	opt.Step(n)
}

func flatParams(n *Network) []float64 {
	var p []float64
	for _, l := range n.Layers {
		p = append(p, l.W.Data...)
		p = append(p, l.B.Data...)
	}
	return p
}

func flatAdam(o *Adam) []float64 {
	s := o.State()
	p := []float64{float64(s.T)}
	for _, ms := range [][][]float64{s.MW, s.VW, s.MB, s.VB} {
		for _, m := range ms {
			p = append(p, m...)
		}
	}
	return p
}

func TestTrainBatchMaskedMatchesFull(t *testing.T) {
	// 200 DQN-shaped Adam steps with a one-hot mask: parameters and
	// optimizer state must equal, bit for bit, those of the full output
	// forward on the portable kernels, whichever kernel set trains.
	const steps, batch = 200, 32
	run := func(masked bool) (params, adam []float64) {
		net := NewNetwork(tpcdsDims, rand.New(rand.NewSource(21)))
		opt := NewAdam(5e-4)
		rng := rand.New(rand.NewSource(22))
		in := NewMatrix(batch, tpcdsDims[0])
		target := NewMatrix(batch, tpcdsDims[len(tpcdsDims)-1])
		mask := NewMatrix(batch, target.Cols)
		for s := 0; s < steps; s++ {
			dqnBatch(in, target, mask, rng)
			if masked {
				net.TrainBatch(opt, in, target, mask)
			} else {
				trainBatchFull(net, opt, in, target, mask)
			}
		}
		return flatParams(net), flatAdam(opt)
	}
	saved := kern
	kern = portableKernels
	wantParams, wantAdam := run(false)
	kern = saved
	forEachKernelSet(t, func(t *testing.T) {
		params, adam := run(true)
		requireSameBits(t, "parameters", params, wantParams)
		requireSameBits(t, "Adam state", adam, wantAdam)
	})
}
