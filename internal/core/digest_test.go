package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"partadvisor/internal/env"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// syntheticPureCost is a fast, deterministic cost stand-in for the digest
// tests: a pure function of (partitioning signature, mix bits)
// in [1, 2). The digest only needs determinism, not physical plausibility.
func syntheticPureCost(st *partition.State, freq workload.FreqVector) float64 {
	h := fnv.New64a()
	h.Write([]byte(st.Signature()))
	var b [8]byte
	for _, f := range freq {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return 1 + float64(h.Sum64()%100000)/100000
}

// offlineTrainingDigest trains a fresh advisor from a fixed seed against
// cost and returns SHA-256 over the saved model bytes concatenated with the
// bit-encoded per-episode reward trajectory. Any divergence in action
// selection, cost evaluation, replay contents or gradient math changes the
// digest.
func offlineTrainingDigest(t *testing.T, cost env.CostFunc) [sha256.Size]byte {
	t.Helper()
	b, sp, _ := microFixture(t)
	hp := Test()
	hp.Episodes = 30
	a, err := New(sp, b.Workload, hp, 7)
	if err != nil {
		t.Fatal(err)
	}
	a.TraceRewards = true
	if err := a.TrainOffline(cost, nil); err != nil {
		t.Fatalf("TrainOffline: %v", err)
	}

	model, err := a.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(model)
	var buf [8]byte
	for _, r := range a.RewardTrace {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestTrainOfflineDigestCacheTransparent proves the cost cache is invisible
// to training: a model trained behind env.CostCache is bit-identical, with
// the same reward trajectory, to one trained on the bare cost function. The
// bound of 16 is far below the run's distinct designs, so generations rotate
// and evicted entries are re-evaluated many times over.
func TestTrainOfflineDigestCacheTransparent(t *testing.T) {
	cc := env.NewCostCache(syntheticPureCost, 16)
	cached := offlineTrainingDigest(t, cc.Cost)
	if direct := offlineTrainingDigest(t, syntheticPureCost); cached != direct {
		t.Fatalf("training digest diverges behind the cost cache:\n  direct  %x\n  cached  %x", direct, cached)
	}
	if _, misses := cc.Stats(); misses <= 2*16 {
		t.Fatalf("only %d cache misses: the bound never forced a generation rotation", misses)
	}
}

// TestTrainOfflineDigestSeedSensitivity guards the digest itself: a
// different seed must yield a different digest, otherwise the
// cache-transparency test above would vacuously pass on a constant hash.
func TestTrainOfflineDigestSeedSensitivity(t *testing.T) {
	b, sp, _ := microFixture(t)
	digestFor := func(seed int64) [sha256.Size]byte {
		hp := Test()
		hp.Episodes = 10
		a, err := New(sp, b.Workload, hp, seed)
		if err != nil {
			t.Fatal(err)
		}
		a.TraceRewards = true
		if err := a.TrainOffline(syntheticPureCost, nil); err != nil {
			t.Fatal(err)
		}
		model, err := a.SaveModel()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(model)
		var buf [8]byte
		for _, r := range a.RewardTrace {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
			h.Write(buf[:])
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		return sum
	}
	if digestFor(1) == digestFor(2) {
		t.Fatal("digests for different seeds collide — the digest is not sensitive to training")
	}
}
