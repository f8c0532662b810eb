package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatalf("Row is not a view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatalf("Clone aliases storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatalf("Zero failed")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows = %+v", m)
	}
	if e := FromRows(nil); e.Rows != 0 {
		t.Fatalf("empty FromRows")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("FromRows accepted ragged rows")
		}
	}()
	FromRows([][]float64{{1}, {1, 2}})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Fatalf("MatMul = %v", dst.Data)
			}
		}
	}
}

// Row patterns of the kernel tests: the shapes of data the training loop
// feeds the kernels (dense weights, one-hot state blocks, ReLU-masked
// activations and deltas, fully masked rows).
const (
	rowDense = iota
	rowOneHot
	rowReLU
	rowZero
	numRowKinds
)

// fillRow writes one row of the given kind. Magnitudes span 2^±10 so that
// any reordering of a sum shows up in the low bits.
func fillRow(row []float64, kind int, rng *rand.Rand) {
	for j := range row {
		row[j] = 0
	}
	val := func() float64 { return math.Ldexp(rng.NormFloat64(), rng.Intn(21)-10) }
	switch kind {
	case rowDense:
		for j := range row {
			row[j] = val()
		}
	case rowOneHot:
		row[rng.Intn(len(row))] = 1
	case rowReLU:
		for j := range row {
			if v := val(); v > 0 {
				row[j] = v
			}
		}
	}
}

// patternMat builds a rows×cols matrix whose row kinds follow kinds
// (cycled); an empty kinds list means dense.
func patternMat(rows, cols int, kinds []int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		kind := rowDense
		if len(kinds) > 0 {
			kind = kinds[i%len(kinds)]
		}
		fillRow(m.Row(i), kind, rng)
	}
	return m
}

// naiveMul is the reference every kernel must match bit for bit: element
// (i, j) is one accumulator over k = 0, 1, 2, … of at(i, k)·bt(k, j),
// zero products included.
func naiveMul(rows, cols, inner int, at, bt func(i, k int) float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			s := 0.0
			for k := 0; k < inner; k++ {
				s += float64(at(i, k) * bt(k, j)) // no fused multiply-add
			}
			m.Set(i, j, s)
		}
	}
	return m
}

func requireBitwise(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, naive reference %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelKinds lists the row-pattern mixes the kernel tests cross: each pure
// kind, then all kinds interleaved.
var kernelKinds = [][]int{{rowDense}, {rowOneHot}, {rowReLU}, {rowZero}, {rowDense, rowOneHot, rowReLU, rowZero}}

// kernelInner lists inner widths crossing the 4-term unroll and the 64-wide
// tile, up to the TPC-DS state width.
var kernelInner = []int{1, 3, 4, 5, 63, 64, 65, 211}

func TestMatMulVariantsAgree(t *testing.T) {
	// MatMul, MatMulATB and MatMulABT must equal the naive single-
	// accumulator ascending-k loop exactly (==, not within a tolerance):
	// the kernels may only skip zero products, never reorder a sum. Every
	// kernel set the host has must pass.
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, k := range kernelInner {
			for _, rows := range []int{1, 7, 66} {
				for _, cols := range []int{1, 5, 64} {
					for ki, kinds := range kernelKinds {
						name := fmt.Sprintf("k=%d rows=%d cols=%d kinds=%d", k, rows, cols, ki)

						a := patternMat(rows, k, kinds, rng)
						w := patternMat(k, cols, nil, rng)
						got := NewMatrix(rows, cols)
						MatMul(got, a, w)
						requireBitwise(t, "MatMul "+name, got, naiveMul(rows, cols, k, a.At, w.At))

						// aᵀ·b sums over the batch rows; both operands carry
						// the pattern, as activations and deltas do.
						d := patternMat(rows, cols, kinds, rng)
						gotATB := NewMatrix(k, cols)
						MatMulATB(gotATB, a, d)
						wantATB := naiveMul(k, cols, rows, func(i, r int) float64 { return a.At(r, i) }, d.At)
						requireBitwise(t, "MatMulATB "+name, gotATB, wantATB)

						// a·bᵀ with a patterned delta and dense weights.
						wt := patternMat(cols, k, nil, rng)
						gotABT := NewMatrix(rows, cols)
						MatMulABT(gotABT, a, wt)
						wantABT := naiveMul(rows, cols, k, a.At, func(kk, j int) float64 { return wt.At(j, kk) })
						requireBitwise(t, "MatMulABT "+name, gotABT, wantABT)
					}
				}
			}
		}
	})
}

func TestDenseBackwardMatchesNaive(t *testing.T) {
	// Dense.Backward's weight, bias and input gradients must equal the
	// naive products of the activation-masked delta exactly, on every
	// kernel set.
	forEachKernelSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, act := range []Activation{ReLU, Linear} {
			for _, k := range kernelInner {
				for ki, kinds := range kernelKinds {
					const rows, cols = 33, 19
					name := fmt.Sprintf("act=%d k=%d kinds=%d", act, k, ki)
					d := NewDense(k, cols, act, rng)
					in := patternMat(rows, k, kinds, rng)
					d.Forward(in)
					gradOut := patternMat(rows, cols, kinds, rng)
					gradIn := d.Backward(gradOut)

					delta := gradOut.Clone()
					for i := range delta.Data {
						if act == ReLU && d.preAct.Data[i] <= 0 {
							delta.Data[i] = 0
						}
					}
					wantW := naiveMul(k, cols, rows, func(i, r int) float64 { return in.At(r, i) }, delta.At)
					requireBitwise(t, "gradW "+name, d.gradW, wantW)
					ones := func(int, int) float64 { return 1 }
					wantB := naiveMul(1, cols, rows, ones, delta.At)
					requireBitwise(t, "gradB "+name, d.gradB, wantB)
					wantIn := naiveMul(rows, k, cols, delta.At, func(j, kk int) float64 { return d.W.At(kk, j) })
					requireBitwise(t, "gradIn "+name, gradIn, wantIn)
				}
			}
		}
	})
}

func TestMatMulShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3) // incompatible
	dst := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatalf("MatMul accepted bad shapes")
		}
	}()
	MatMul(dst, a, b)
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, ReLU, rng)
	d.W = FromRows([][]float64{{1, -1}, {0, 2}})
	d.B = FromRows([][]float64{{0.5, -10}})
	out := d.Forward(FromRows([][]float64{{1, 1}}))
	// pre = [1*1+1*0+0.5, 1*-1+1*2-10] = [1.5, -9] -> ReLU -> [1.5, 0]
	if out.At(0, 0) != 1.5 || out.At(0, 1) != 0 {
		t.Fatalf("Forward = %v", out.Data)
	}
}

func TestNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNetwork([]int{5, 8, 3}, rng)
	if n.InDim() != 5 || n.OutDim() != 3 {
		t.Fatalf("dims = %d,%d", n.InDim(), n.OutDim())
	}
	out := n.Predict(make([]float64, 5))
	if len(out) != 3 {
		t.Fatalf("Predict len = %d", len(out))
	}
	// Hidden layer is ReLU, output is Linear.
	if n.Layers[0].Act != ReLU || n.Layers[1].Act != Linear {
		t.Fatalf("activations wrong")
	}
}

func TestGradientsNumerically(t *testing.T) {
	// Check backprop gradients against central finite differences.
	rng := rand.New(rand.NewSource(3))
	n := NewNetwork([]int{3, 4, 2}, rng)
	in := FromRows([][]float64{{0.3, -0.5, 0.8}, {1, 0.2, -0.1}})
	target := FromRows([][]float64{{0.5, -1}, {0, 2}})

	loss := func() float64 {
		out := n.Forward(in)
		s := 0.0
		for i := range out.Data {
			d := out.Data[i] - target.Data[i]
			s += d * d
		}
		return s / float64(len(out.Data))
	}
	// Analytic gradients.
	out := n.Forward(in)
	grad := NewMatrix(out.Rows, out.Cols)
	for i := range out.Data {
		grad.Data[i] = 2 * (out.Data[i] - target.Data[i]) / float64(len(out.Data))
	}
	n.Backward(grad)

	const eps = 1e-6
	for li, l := range n.Layers {
		for _, idx := range []int{0, 1, len(l.W.Data) - 1} {
			orig := l.W.Data[idx]
			l.W.Data[idx] = orig + eps
			up := loss()
			l.W.Data[idx] = orig - eps
			down := loss()
			l.W.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := l.gradW.Data[idx]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d W[%d]: numeric %v vs analytic %v", li, idx, numeric, analytic)
			}
		}
		for idx := 0; idx < l.B.Cols; idx++ {
			orig := l.B.Data[idx]
			l.B.Data[idx] = orig + eps
			up := loss()
			l.B.Data[idx] = orig - eps
			down := loss()
			l.B.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := l.gradB.Data[idx]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d B[%d]: numeric %v vs analytic %v", li, idx, numeric, analytic)
			}
		}
	}
}

func TestTrainBatchLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewNetwork([]int{2, 16, 1}, rng)
	opt := NewAdam(0.01)
	in := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	target := FromRows([][]float64{{0}, {1}, {1}, {0}})
	var loss float64
	for i := 0; i < 3000; i++ {
		loss = n.TrainBatch(opt, in, target, nil)
	}
	if loss > 0.01 {
		t.Fatalf("XOR loss after training = %v", loss)
	}
	for i := 0; i < 4; i++ {
		got := n.Predict(in.Row(i))[0]
		want := target.At(i, 0)
		if math.Abs(got-want) > 0.2 {
			t.Fatalf("XOR(%v) = %v, want %v", in.Row(i), got, want)
		}
	}
}

func TestTrainBatchMask(t *testing.T) {
	// With a mask selecting one output, the other output must not change.
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork([]int{2, 2}, rng) // single linear layer, 2 outputs
	opt := &SGD{LR: 0.1}
	in := FromRows([][]float64{{1, 0}})
	before := n.Predict(in.Row(0))
	target := FromRows([][]float64{{before[0] + 10, before[1] + 10}})
	mask := FromRows([][]float64{{1, 0}})
	for i := 0; i < 50; i++ {
		n.TrainBatch(opt, in, target, mask)
	}
	after := n.Predict(in.Row(0))
	if math.Abs(after[0]-before[0]) < 1 {
		t.Fatalf("masked-in output did not move: %v -> %v", before[0], after[0])
	}
	if math.Abs(after[1]-before[1]) > 1e-9 {
		t.Fatalf("masked-out output moved: %v -> %v", before[1], after[1])
	}
}

func TestSGDReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := NewNetwork([]int{3, 8, 1}, rng)
	opt := &SGD{LR: 0.05}
	in := FromRows([][]float64{{1, 2, 3}, {-1, 0, 1}})
	target := FromRows([][]float64{{1}, {-1}})
	first := n.TrainBatch(opt, in, target, nil)
	var last float64
	for i := 0; i < 200; i++ {
		last = n.TrainBatch(opt, in, target, nil)
	}
	if last >= first {
		t.Fatalf("SGD did not reduce loss: %v -> %v", first, last)
	}
}

func TestCloneAndSoftUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewNetwork([]int{4, 6, 2}, rng)
	c := n.Clone()
	if d := n.L2Distance(c); d != 0 {
		t.Fatalf("clone distance = %v", d)
	}
	// Mutate the original; clone must not follow.
	n.Layers[0].W.Data[0] += 1
	if d := n.L2Distance(c); d == 0 {
		t.Fatalf("clone aliases weights")
	}
	// Soft update moves the clone toward the original by tau.
	before := c.Layers[0].W.Data[0]
	c.SoftUpdateFrom(n, 0.5)
	after := c.Layers[0].W.Data[0]
	want := (before + n.Layers[0].W.Data[0]) / 2
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("SoftUpdate: %v, want %v", after, want)
	}
	// tau = 1 copies exactly.
	c.SoftUpdateFrom(n, 1)
	if d := n.L2Distance(c); d > 1e-12 {
		t.Fatalf("tau=1 distance = %v", d)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewNetwork([]int{5, 7, 3}, rng)
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m Network
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if d := n.L2Distance(&m); d != 0 {
		t.Fatalf("round-trip distance = %v", d)
	}
	in := []float64{1, -1, 0.5, 0, 2}
	a, b := n.Predict(in), m.Predict(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip prediction differs")
		}
	}
	if err := new(Network).UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatalf("unmarshal accepted junk")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewNetwork([]int{3, 4, 1}, rand.New(rand.NewSource(9)))
	b := NewNetwork([]int{3, 4, 1}, rand.New(rand.NewSource(9)))
	if d := a.L2Distance(b); d != 0 {
		t.Fatalf("same-seed networks differ by %v", d)
	}
}

func TestPredictFiniteProperty(t *testing.T) {
	n := NewNetwork([]int{4, 8, 2}, rand.New(rand.NewSource(10)))
	f := func(a, b, c, d float64) bool {
		// Constrain inputs to a sane range (quick can generate huge values).
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 100)
		}
		out := n.Predict([]float64{clamp(a), clamp(b), clamp(c), clamp(d)})
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
