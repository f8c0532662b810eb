package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

const (
	// ReLU is max(0, x) — the paper uses it on every hidden layer.
	ReLU Activation = iota
	// Linear is the identity — the paper's output layer (a Q-value).
	Linear
)

// Dense is a fully connected layer: out = act(in·W + b).
type Dense struct {
	W, B *Matrix
	Act  Activation

	// forward scratch of the current pass; scratch keeps one buffer pair
	// per batch size so alternating training (batch 32) and greedy
	// inference (batch 1) passes don't reallocate on every call
	in, preAct, out *Matrix
	scratch         map[int]*denseScratch
	// gradients
	gradW, gradB *Matrix
}

// denseScratch is the cached forward/backward state for one batch size.
// delta, gradIn and the delta row index are allocated lazily on the first
// Backward of that size, so inference-only sizes (batch 1 greedy passes)
// never pay for them.
type denseScratch struct {
	preAct, out   *Matrix
	delta, gradIn *Matrix
	deltaNZ       rowIndex
	// nonzero-input gather of forwardMasked
	ks []int
	as []float64
}

// NewDense builds a layer with Xavier-initialized weights.
func NewDense(inDim, outDim int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		W:     NewMatrix(inDim, outDim),
		B:     NewMatrix(1, outDim),
		Act:   act,
		gradW: NewMatrix(inDim, outDim),
		gradB: NewMatrix(1, outDim),
	}
	d.W.XavierInit(inDim, outDim, rng)
	return d
}

// Forward computes the layer output for a batch, caching activations for
// Backward.
func (d *Dense) Forward(in *Matrix) *Matrix {
	d.bind(in)
	matMul(d.preAct, in, d.W)
	// Fused bias + activation: one pass over each row adds the bias (after
	// the matmul accumulation, preserving the summation order) and writes
	// the activated output.
	cols := d.W.Cols
	for i := 0; i < in.Rows; i++ {
		row := d.preAct.Data[i*cols : (i+1)*cols]
		outRow := d.out.Data[i*cols:][:len(row)]
		bias := d.B.Data[:len(row)]
		if d.Act == ReLU {
			for j, v := range row {
				v += bias[j]
				row[j] = v
				if v > 0 {
					outRow[j] = v
				} else {
					outRow[j] = 0
				}
			}
		} else {
			for j, v := range row {
				v += bias[j]
				row[j] = v
				outRow[j] = v
			}
		}
	}
	return d.out
}

// bind points the layer's forward state at in and at the scratch buffers
// of in's batch size.
func (d *Dense) bind(in *Matrix) *denseScratch {
	if d.scratch == nil {
		d.scratch = make(map[int]*denseScratch)
	}
	sc := d.scratch[in.Rows]
	if sc == nil {
		sc = &denseScratch{preAct: NewMatrix(in.Rows, d.W.Cols), out: NewMatrix(in.Rows, d.W.Cols)}
		d.scratch[in.Rows] = sc
	}
	d.in, d.preAct, d.out = in, sc.preAct, sc.out
	return sc
}

// forwardMasked is Forward for a Linear layer that computes only the
// outputs where mask is nonzero; the others keep stale values. Each one
// sums in[i][k]·W[k][j] over the row's nonzero k in ascending order from
// +0 and then adds the bias, exactly as matMul and Forward do, so the
// computed outputs are bitwise the full forward's.
func (d *Dense) forwardMasked(in, mask *Matrix) *Matrix {
	sc := d.bind(in)
	if len(sc.ks) != in.Cols {
		sc.ks = make([]int, in.Cols)
		sc.as = make([]float64, in.Cols)
	}
	cols := d.W.Cols
	for i := 0; i < in.Rows; i++ {
		n := 0
		for k, av := range in.Row(i) {
			sc.ks[n], sc.as[n] = k, av
			if av != 0 {
				n++
			}
		}
		ks, as := sc.ks[:n], sc.as[:n]
		for j, mv := range mask.Data[i*cols : (i+1)*cols] {
			if mv == 0 {
				continue
			}
			s := 0.0
			for t, k := range ks {
				s += float64(as[t] * d.W.Data[k*cols+j])
			}
			s += d.B.Data[j]
			d.preAct.Data[i*cols+j] = s
			d.out.Data[i*cols+j] = s
		}
	}
	return d.out
}

// Backward takes dL/d(out) and returns dL/d(in), accumulating weight and
// bias gradients (overwriting previous ones). The delta and grad-in
// matrices live in the per-batch-size scratch (like the forward buffers),
// so steady-state training performs no per-step allocations; the returned
// matrix is valid until the next Backward of the same batch size.
func (d *Dense) Backward(gradOut *Matrix) *Matrix { return d.backward(gradOut, true) }

// backward is Backward with dL/d(in) optional: the input layer's is never
// read, and skipping it saves a batch×in×out product per step.
func (d *Dense) backward(gradOut *Matrix, wantGradIn bool) *Matrix {
	sc := d.scratch[gradOut.Rows]
	if sc == nil { // Backward without a matching Forward: tests only
		sc = &denseScratch{preAct: NewMatrix(gradOut.Rows, d.W.Cols), out: NewMatrix(gradOut.Rows, d.W.Cols)}
		d.scratch[gradOut.Rows] = sc
	}
	if sc.delta == nil {
		sc.delta = NewMatrix(gradOut.Rows, gradOut.Cols)
		sc.gradIn = NewMatrix(gradOut.Rows, d.W.Rows)
	}
	// Apply the activation derivative on a copy, then index the delta's
	// nonzeros once for both transposed products.
	delta := sc.delta
	copy(delta.Data, gradOut.Data)
	if d.Act == ReLU {
		for i, p := range d.preAct.Data[:len(delta.Data)] {
			if p <= 0 {
				delta.Data[i] = 0
			}
		}
	}
	sc.deltaNZ.build(delta)
	matMulATB(d.gradW, d.in, delta, &sc.deltaNZ)
	d.gradB.Zero()
	for i := 0; i < delta.Rows; i++ {
		row := delta.Row(i)
		for j, v := range row {
			d.gradB.Data[j] += v
		}
	}
	if !wantGradIn {
		return nil
	}
	matMulABT(sc.gradIn, delta, d.W, &sc.deltaNZ)
	return sc.gradIn
}

// Network is a feed-forward stack of dense layers. A Network (like its
// layers) keeps per-pass scratch state, so a single instance must not be
// used from multiple goroutines concurrently; the parallel committee gives
// every expert its own networks.
type Network struct {
	Layers []*Dense

	predictIn *Matrix   // reused 1-row input of Predict
	batchIn   *Matrix   // reused input matrix of PredictBatch
	batchFlat []float64 // reused output storage of PredictBatch
	batchRes  [][]float64
	trainGrad *Matrix // reused dL/d(out) of TrainBatch
}

// NewNetwork builds a net with the given layer widths, ReLU on hidden layers
// and a linear output — the paper's architecture is dims = [in, 128, 64, out].
func NewNetwork(dims []int, rng *rand.Rand) *Network {
	if len(dims) < 2 {
		panic("nn: network needs at least input and output dims")
	}
	n := &Network{}
	for i := 0; i < len(dims)-1; i++ {
		act := ReLU
		if i == len(dims)-2 {
			act = Linear
		}
		n.Layers = append(n.Layers, NewDense(dims[i], dims[i+1], act, rng))
	}
	return n
}

// InDim and OutDim return the input/output widths.
func (n *Network) InDim() int  { return n.Layers[0].W.Rows }
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].W.Cols }

// Forward runs a batch through the network.
func (n *Network) Forward(in *Matrix) *Matrix {
	out := in
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict runs a single input vector and returns a copied output vector.
func (n *Network) Predict(in []float64) []float64 {
	if n.predictIn == nil || n.predictIn.Cols != len(in) {
		n.predictIn = NewMatrix(1, len(in))
	}
	copy(n.predictIn.Data, in)
	out := n.Forward(n.predictIn)
	res := make([]float64, out.Cols)
	copy(res, out.Row(0))
	return res
}

// PredictBatch runs many input vectors through one forward pass and returns
// one output row per input. Each output row is bitwise identical to what
// Predict would return for that input alone, so callers can batch
// greedy/argmin scans over candidate inputs (all valid actions, all
// neighbor designs) without changing results. The returned rows share a
// pooled buffer that is valid only until the next PredictBatch call on this
// network; copy rows that must outlive it.
func (n *Network) PredictBatch(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	cols := len(rows[0])
	if n.batchIn == nil || n.batchIn.Rows != len(rows) || n.batchIn.Cols != cols {
		n.batchIn = NewMatrix(len(rows), cols)
	}
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(n.batchIn.Data[i*cols:], r)
	}
	out := n.Forward(n.batchIn)
	if cap(n.batchFlat) < len(out.Data) {
		n.batchFlat = make([]float64, len(out.Data))
	}
	flat := n.batchFlat[:len(out.Data)]
	copy(flat, out.Data)
	if cap(n.batchRes) < out.Rows {
		n.batchRes = make([][]float64, out.Rows)
	}
	res := n.batchRes[:out.Rows]
	for i := range res {
		res[i] = flat[i*out.Cols : (i+1)*out.Cols]
	}
	return res
}

// Backward backpropagates dL/d(out) through all layers, leaving gradients in
// each layer. The input layer's dL/d(in) is not computed.
func (n *Network) Backward(gradOut *Matrix) {
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].backward(g, i > 0)
	}
}

// TrainBatch performs one optimizer step on (inputs, targets) with an
// optional per-sample-per-output mask (nil = all outputs count). Masked MSE
// is what DQN needs: only the taken action's Q-output receives a gradient.
// It returns the masked mean squared error before the update.
//
// With a mask and a Linear output layer, the output layer computes only the
// masked outputs (one of |A| per row for DQN): the loss and the backward
// pass read no other.
func (n *Network) TrainBatch(opt Optimizer, in, target, mask *Matrix) float64 {
	if target.Rows != in.Rows || target.Cols != n.OutDim() {
		panic(fmt.Sprintf("nn: target shape (%dx%d) != output (%dx%d)", target.Rows, target.Cols, in.Rows, n.OutDim()))
	}
	var out *Matrix
	if last := n.Layers[len(n.Layers)-1]; mask != nil && last.Act == Linear {
		if mask.Rows != target.Rows || mask.Cols != target.Cols {
			panic(fmt.Sprintf("nn: mask shape (%dx%d) != output (%dx%d)", mask.Rows, mask.Cols, target.Rows, target.Cols))
		}
		h := in
		for _, l := range n.Layers[:len(n.Layers)-1] {
			h = l.Forward(h)
		}
		out = last.forwardMasked(h, mask)
	} else {
		out = n.Forward(in)
	}
	if n.trainGrad == nil || n.trainGrad.Rows != out.Rows || n.trainGrad.Cols != out.Cols {
		n.trainGrad = NewMatrix(out.Rows, out.Cols)
	}
	grad := n.trainGrad
	grad.Zero()
	loss := 0.0
	count := 0.0
	for i := range out.Data {
		mv := 1.0
		if mask != nil {
			mv = mask.Data[i]
		}
		if mv == 0 {
			continue
		}
		diff := out.Data[i] - target.Data[i]
		loss += float64(diff * diff)
		count++
		grad.Data[i] = 2 * diff
	}
	if count > 0 {
		loss /= count
		for i := range grad.Data {
			grad.Data[i] /= count
		}
	}
	n.Backward(grad)
	opt.Step(n)
	return loss
}

// Clone deep-copies the network (used for target networks).
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.Layers {
		c.Layers = append(c.Layers, &Dense{
			W: l.W.Clone(), B: l.B.Clone(), Act: l.Act,
			gradW: NewMatrix(l.W.Rows, l.W.Cols),
			gradB: NewMatrix(1, l.B.Cols),
		})
	}
	return c
}

// SoftUpdateFrom blends source weights into this network:
// θ' ← (1−τ)·θ' + τ·θ — the paper's target-network update with τ = 1e-3.
func (n *Network) SoftUpdateFrom(src *Network, tau float64) {
	if len(n.Layers) != len(src.Layers) {
		panic("nn: SoftUpdateFrom layer count mismatch")
	}
	keep := 1 - tau
	blend := kern.blend
	for li, l := range n.Layers {
		blend(l.W.Data, src.Layers[li].W.Data[:len(l.W.Data)], keep, tau)
		blend(l.B.Data, src.Layers[li].B.Data[:len(l.B.Data)], keep, tau)
	}
}

// netGob is the serialized form.
type netGob struct {
	Dims []int
	Acts []Activation
	W    [][]float64
	B    [][]float64
}

// MarshalBinary encodes the network with encoding/gob.
func (n *Network) MarshalBinary() ([]byte, error) {
	g := netGob{}
	for i, l := range n.Layers {
		if i == 0 {
			g.Dims = append(g.Dims, l.W.Rows)
		}
		g.Dims = append(g.Dims, l.W.Cols)
		g.Acts = append(g.Acts, l.Act)
		g.W = append(g.W, append([]float64(nil), l.W.Data...))
		g.B = append(g.B, append([]float64(nil), l.B.Data...))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a network previously encoded with MarshalBinary.
func (n *Network) UnmarshalBinary(data []byte) error {
	var g netGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return err
	}
	if len(g.Dims) < 2 || len(g.W) != len(g.Dims)-1 {
		return fmt.Errorf("nn: corrupt network encoding")
	}
	n.Layers = nil
	for i := 0; i < len(g.Dims)-1; i++ {
		l := &Dense{
			W:     &Matrix{Rows: g.Dims[i], Cols: g.Dims[i+1], Data: g.W[i]},
			B:     &Matrix{Rows: 1, Cols: g.Dims[i+1], Data: g.B[i]},
			Act:   g.Acts[i],
			gradW: NewMatrix(g.Dims[i], g.Dims[i+1]),
			gradB: NewMatrix(1, g.Dims[i+1]),
		}
		if len(l.W.Data) != l.W.Rows*l.W.Cols || len(l.B.Data) != l.B.Cols {
			return fmt.Errorf("nn: corrupt layer %d encoding", i)
		}
		n.Layers = append(n.Layers, l)
	}
	return nil
}

// L2Distance returns the mean squared difference of parameters between two
// identically shaped networks (used in tests and drift diagnostics).
func (n *Network) L2Distance(o *Network) float64 {
	sum, count := 0.0, 0.0
	for li, l := range n.Layers {
		ol := o.Layers[li]
		for i := range l.W.Data {
			d := l.W.Data[i] - ol.W.Data[i]
			sum += float64(d * d)
			count++
		}
		for i := range l.B.Data {
			d := l.B.Data[i] - ol.B.Data[i]
			sum += float64(d * d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(sum / count)
}
