package dqn

import (
	"math/rand"
	"testing"
)

// benchAgent builds an agent over the given head with a replay buffer full
// of synthetic transitions, ready to TrainStep.
func benchAgent(b *testing.B, scalar bool) *Agent {
	b.Helper()
	const stateDim, numActions = 48, 12
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	cfg.Hidden = []int{128, 64}
	var q QFunc
	if scalar {
		feats := make([][]float64, numActions)
		for i := range feats {
			feats[i] = make([]float64, 8)
			for j := range feats[i] {
				feats[i][j] = rng.NormFloat64()
			}
		}
		q = NewScalarQ(stateDim, cfg.Hidden, feats, cfg.LearningRate, rng)
	} else {
		q = NewMultiHeadQ(stateDim, cfg.Hidden, numActions, cfg.LearningRate, rng)
	}
	a, err := NewAgent(q, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	mkState := func() []float64 {
		s := make([]float64, stateDim)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	for i := 0; i < 4*cfg.BatchSize; i++ {
		tr := Transition{
			State:  mkState(),
			Action: rng.Intn(numActions),
			Reward: rng.NormFloat64(),
		}
		if i%5 != 0 { // every fifth transition is terminal (Next == nil)
			tr.Next = mkState()
			tr.NextValid = []int{0, 2, 5, 7, 11}
		}
		a.Observe(tr)
	}
	return a
}

// benchTrainStep: one replay-sampled gradient update. bytes/op is the PR's
// pooled-scratch acceptance number — the forward/backward/target matrices
// and the batch staging buffers must all come from per-head pools.
func benchTrainStep(b *testing.B, scalar bool) {
	b.Helper()
	a := benchAgent(b, scalar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, trained := a.TrainStep(); !trained {
			b.Fatal("TrainStep found no batch")
		}
	}
}

func BenchmarkTrainStepMultiHead(b *testing.B) { benchTrainStep(b, false) }
func BenchmarkTrainStepScalar(b *testing.B)    { benchTrainStep(b, true) }

// BenchmarkValuesBatch: the fused batched Q evaluation behind GreedyBatch
// and committee reference discovery, vs the per-state loop it replaces.
func BenchmarkValuesBatch(b *testing.B) {
	a := benchAgent(b, false)
	bv := a.Q.(BatchValuer)
	rng := rand.New(rand.NewSource(2))
	const n = 16
	states := make([][]float64, n)
	valids := make([][]int, n)
	for i := range states {
		states[i] = make([]float64, 48)
		for j := range states[i] {
			states[i][j] = rng.NormFloat64()
		}
		valids[i] = []int{0, 1, 3, 6, 9, 11}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bv.ValuesBatch(states, valids)
	}
}

// BenchmarkTrainStepMultiHeadTPCDSShape: one TrainStep at the exact shape
// the TPC-DS repro run trains (211 → 128 → 64 → 195, batch 32). States
// mirror State.Encode: 24 one-hot table blocks and a few edge bits over 143
// slots, then a 68-query frequency mix with some zero entries. Every
// non-terminal transition lists ~|A| valid next actions. Steady state must
// report 0 allocs/op.
func BenchmarkTrainStepMultiHeadTPCDSShape(b *testing.B) {
	const layoutLen, mixLen, numActions, block = 143, 68, 195, 6
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	q := NewMultiHeadQ(layoutLen+mixLen, cfg.Hidden, numActions, cfg.LearningRate, rng)
	a, err := NewAgent(q, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	mkState := func() []float64 {
		s := make([]float64, layoutLen+mixLen)
		for off := 0; off+block <= layoutLen-5; off += block {
			s[off+rng.Intn(block)] = 1
		}
		for e := layoutLen - 5; e < layoutLen; e++ {
			if rng.Intn(3) == 0 {
				s[e] = 1
			}
		}
		for i := layoutLen; i < len(s); i++ {
			if rng.Intn(10) != 0 {
				s[i] = rng.Float64()
			}
		}
		return s
	}
	valid := make([]int, 0, numActions)
	for i := 0; i < numActions; i++ {
		if i%16 != 0 {
			valid = append(valid, i)
		}
	}
	for i := 0; i < 8*cfg.BatchSize; i++ {
		tr := Transition{State: mkState(), Action: rng.Intn(numActions), Reward: rng.NormFloat64()}
		if i%28 != 27 { // one terminal step per 28-step episode
			tr.Next = mkState()
			tr.NextValid = valid
		}
		a.Observe(tr)
	}
	a.TrainStep() // allocate the pooled scratch outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, trained := a.TrainStep(); !trained {
			b.Fatal("TrainStep found no batch")
		}
	}
}
