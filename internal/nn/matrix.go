// Package nn is a small, dependency-free neural-network library: dense
// matrices, fully connected layers with ReLU/linear activations, mean
// squared error, SGD and Adam optimizers, and gob serialization. It exists
// because the paper's advisor is built on Keras, which has no Go
// counterpart; the package implements exactly the subset the paper needs
// (feed-forward nets, 2 hidden layers, ReLU, linear output, Adam, MSE).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all of equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// matMulKTile is the k-dimension tile of the blocked matmul below: one tile
// of b (matMulKTile rows × b.Cols) is streamed against every output row
// before moving to the next tile, so for multi-row batches the tile stays in
// L1/L2 across rows instead of b being re-fetched per row. 64 rows × 512
// columns × 8 bytes caps a tile at 256 KB even for the widest layer in the
// repo; typical hidden layers (≤128 cols) keep it under 64 KB.
const matMulKTile = 64

// Bit identity. Every kernel below gives each output element one
// accumulator that starts at +0 and adds its products in ascending order of
// the summed index, exactly like the naive triple loop. The only freedom the
// kernels take is to skip a product whose factor is ±0: a sum that starts
// at +0 can never become -0 under round-to-nearest, and x + (±0) == x for
// every x other than -0, so skipping such a product leaves every bit of the
// result unchanged (for finite operands). Blocking changes which elements
// are live in registers, never the order of any one element's sum, and the
// row passes go through the kernels of kernels.go, whose SIMD lanes are
// independent elements.

// matMul computes dst = a × b, cache-blocked on the k (inner) dimension.
// Tiles are visited in ascending order and each tile applies its k's in
// ascending order, so every element sums in ascending k.
func matMul(dst, a, b *Matrix) {
	dst.Zero()
	var ks [matMulKTile]int
	var as [matMulKTile]float64
	for kb := 0; kb < a.Cols; kb += matMulKTile {
		kEnd := min(kb+matMulKTile, a.Cols)
		for i := 0; i < a.Rows; i++ {
			// Gather the tile's nonzero k's: one-hot inputs and ReLU
			// activations are mostly zero.
			n := 0
			for k, av := range a.Data[i*a.Cols+kb : i*a.Cols+kEnd] {
				ks[n], as[n] = kb+k, av
				if av != 0 {
					n++
				}
			}
			accRows(dst.Data[i*dst.Cols:(i+1)*dst.Cols], b, ks[:n], as[:n])
		}
	}
}

// accRows adds coef[t]·(row rows[t] of b) into dr for t ascending. It
// applies four rows per axpy4 pass, so each dr element is loaded and
// stored once per four products.
func accRows(dr []float64, b *Matrix, rows []int, coef []float64) {
	coef = coef[:len(rows)]
	cols := b.Cols
	axpy4, axpy1 := kern.axpy4, kern.axpy1
	t := 0
	for ; t+4 <= len(rows); t += 4 {
		axpy4(dr,
			b.Data[rows[t]*cols:][:len(dr)], b.Data[rows[t+1]*cols:][:len(dr)],
			b.Data[rows[t+2]*cols:][:len(dr)], b.Data[rows[t+3]*cols:][:len(dr)],
			coef[t], coef[t+1], coef[t+2], coef[t+3])
	}
	for ; t < len(rows); t++ {
		axpy1(dr, b.Data[rows[t]*cols:][:len(dr)], coef[t])
	}
}

// MatMul computes dst = a × b. dst must be pre-shaped (a.Rows × b.Cols) and
// distinct from a and b.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMul shape mismatch: (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	matMul(dst, a, b)
}

// rowIndex lists, for every row of a matrix, the ascending column indices
// of its nonzero entries. Backward builds it once per step for the delta,
// and both transposed products loop over it, so the masked output layer
// (one nonzero per row) costs O(rows·hidden) instead of O(rows·hidden·|A|).
type rowIndex struct {
	cols int
	n    []int   // nonzero count per row
	idx  []int32 // row i's list is idx[i*cols : i*cols+n[i]]
}

// build indexes m, reusing the storage when the shape is unchanged.
func (x *rowIndex) build(m *Matrix) {
	if x.cols != m.Cols || len(x.n) != m.Rows {
		x.cols = m.Cols
		x.n = make([]int, m.Rows)
		x.idx = make([]int32, m.Rows*m.Cols)
	}
	for i := range x.n {
		ix := x.idx[i*m.Cols : (i+1)*m.Cols]
		c := 0
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			ix[c] = int32(j)
			if v != 0 {
				c++
			}
		}
		x.n[i] = c
	}
}

// row returns row i's nonzero columns.
func (x *rowIndex) row(i int) []int32 { return x.idx[i*x.cols : i*x.cols+x.n[i]] }

// nnz returns the total nonzero count.
func (x *rowIndex) nnz() int {
	s := 0
	for _, c := range x.n {
		s += c
	}
	return s
}

// MatMulATB computes dst = aᵀ × b (used for weight gradients).
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulATB shape mismatch: (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	var bnz rowIndex
	bnz.build(b)
	matMulATB(dst, a, b, &bnz)
}

// matMulATB computes dst = aᵀ × b given b's row index; every dst element
// sums over a's rows in ascending order. A sparse b (the masked output
// layer's delta) is scattered row by row: each nonzero a[r][k] times b's
// row r, along that row's index list. A dense-ish b (ReLU-masked hidden
// deltas) runs the blocked form: per dst row k, the rows r with
// a[r][k] ≠ 0 are gathered and applied four at a time over the full dst
// row, whose zero products are exact no-ops. Both forms run in every
// TPC-DS step; either one alone makes the step ~25% slower.
func matMulATB(dst, a, b *Matrix, bnz *rowIndex) {
	// Index and value gathers run in chunks of matMulKTile so the buffers
	// live on the stack.
	var ix [matMulKTile]int
	var as [matMulKTile]float64
	if 4*bnz.nnz() <= len(b.Data) {
		dst.Zero()
		for r := 0; r < a.Rows; r++ {
			js := bnz.row(r)
			if len(js) == 0 {
				continue
			}
			br := b.Data[r*b.Cols : (r+1)*b.Cols]
			for kb := 0; kb < a.Cols; kb += matMulKTile {
				n := 0
				for k, av := range a.Data[r*a.Cols+kb : r*a.Cols+min(kb+matMulKTile, a.Cols)] {
					ix[n], as[n] = kb+k, av
					if av != 0 {
						n++
					}
				}
				for t, k := range ix[:n] {
					av := as[t]
					dr := dst.Data[k*dst.Cols : (k+1)*dst.Cols]
					for _, j := range js {
						dr[j] += float64(av * br[j])
					}
				}
			}
		}
		return
	}
	for k := 0; k < a.Cols; k++ {
		dr := dst.Data[k*dst.Cols : (k+1)*dst.Cols]
		for j := range dr {
			dr[j] = 0
		}
		for rb := 0; rb < a.Rows; rb += matMulKTile {
			n := 0
			for r := rb; r < min(rb+matMulKTile, a.Rows); r++ {
				av := a.Data[r*a.Cols+k]
				ix[n], as[n] = r, av
				if av != 0 {
					n++
				}
			}
			accRows(dr, b, ix[:n], as[:n])
		}
	}
}

// MatMulABT computes dst = a × bᵀ (used to backpropagate deltas).
func MatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMulABT shape mismatch: (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	var anz rowIndex
	anz.build(a)
	matMulABT(dst, a, b, &anz)
}

// matMulABT computes dst = a × bᵀ given a's row index: dst[i][k] is the dot
// product of a's row i and b's row k over a's nonzero columns only, in
// ascending column order. Four dst elements (four b rows) share each pass
// over the index list.
func matMulABT(dst, a, b *Matrix, anz *rowIndex) {
	for i := 0; i < a.Rows; i++ {
		js := anz.row(i)
		ar := a.Data[i*a.Cols : (i+1)*a.Cols]
		dr := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		k := 0
		for ; k+4 <= b.Rows; k += 4 {
			b0 := b.Data[k*b.Cols:][:len(ar)]
			b1 := b.Data[(k+1)*b.Cols:][:len(ar)]
			b2 := b.Data[(k+2)*b.Cols:][:len(ar)]
			b3 := b.Data[(k+3)*b.Cols:][:len(ar)]
			var s0, s1, s2, s3 float64
			for _, j := range js {
				av := ar[j]
				s0 += float64(av * b0[j])
				s1 += float64(av * b1[j])
				s2 += float64(av * b2[j])
				s3 += float64(av * b3[j])
			}
			dr[k], dr[k+1], dr[k+2], dr[k+3] = s0, s1, s2, s3
		}
		for ; k < b.Rows; k++ {
			br := b.Data[k*b.Cols:][:len(ar)]
			s := 0.0
			for _, j := range js {
				s += float64(ar[j] * br[j])
			}
			dr[k] = s
		}
	}
}

// XavierInit fills the matrix with Glorot-uniform weights for a layer with
// the given fan-in and fan-out, using the provided RNG for determinism.
func (m *Matrix) XavierInit(fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		u := float64(rng.Float64()) // the inlined Float64 fuses otherwise
		m.Data[i] = (float64(u*2) - 1) * limit
	}
}
