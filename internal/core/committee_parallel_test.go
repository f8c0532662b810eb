package core

import (
	"bytes"
	"testing"
)

// TestCommitteeParallelMatchesSequential is the determinism guarantee of the
// parallel committee: with a deterministic cost function and a fixed seed,
// goroutine-per-expert training must produce bitwise-identical experts to the
// sequential loop, because every expert owns its networks and rand.Rand.
func TestCommitteeParallelMatchesSequential(t *testing.T) {
	build := func(sequential bool) (*Committee, [][]byte) {
		b, sp, cm := microFixture(t)
		hp := Test()
		hp.Episodes = 40
		naive, err := New(sp, b.Workload, hp, 11)
		if err != nil {
			t.Fatal(err)
		}
		cost := offlineCost(cm, b.Workload)
		if err := naive.TrainOffline(cost, nil); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultCommitteeConfig(naive)
		cfg.ExpertEpisodes = 16
		cfg.Sequential = sequential
		c, err := BuildCommittee(naive, cost, cfg)
		if err != nil {
			t.Fatalf("BuildCommittee(sequential=%v): %v", sequential, err)
		}
		models, err := c.SaveModels()
		if err != nil {
			t.Fatal(err)
		}
		return c, models
	}

	seqC, seqModels := build(true)
	parC, parModels := build(false)

	if len(seqC.Refs) != len(parC.Refs) {
		t.Fatalf("ref count diverged: %d vs %d", len(seqC.Refs), len(parC.Refs))
	}
	for i := range seqC.Refs {
		if seqC.Refs[i].Signature() != parC.Refs[i].Signature() {
			t.Fatalf("ref %d diverged:\n%s\nvs\n%s", i, seqC.Refs[i].Signature(), parC.Refs[i].Signature())
		}
	}
	if len(seqModels) != len(parModels) {
		t.Fatalf("expert count diverged: %d vs %d", len(seqModels), len(parModels))
	}
	for i := range seqModels {
		if !bytes.Equal(seqModels[i], parModels[i]) {
			t.Fatalf("expert %d weights are not bitwise identical between sequential and parallel training", i)
		}
	}

	// Both committees must agree on inference, too.
	freq := seqC.Naive.WL.UniformFreq()
	seqSt, seqCost, err := seqC.Suggest(freq)
	if err != nil {
		t.Fatal(err)
	}
	parSt, parCost, err := parC.Suggest(freq)
	if err != nil {
		t.Fatal(err)
	}
	if seqSt.Signature() != parSt.Signature() || seqCost != parCost {
		t.Fatalf("suggestions diverged: (%s, %v) vs (%s, %v)",
			seqSt.Signature(), seqCost, parSt.Signature(), parCost)
	}
}
