package main

import (
	"bytes"
	"math/rand"
	"testing"

	"partadvisor/internal/core"
	"partadvisor/internal/dqn"
)

// The traced run must take the same code paths as the untraced one: same
// trajectory, byte-identical saved model, same suggestion.
func TestTracedRunMatchesUntraced(t *testing.T) {
	spec := trainSpec{bench: "tpcch", scale: 0.2, hp: core.Test(), online: true, sampleRate: 0.2, sampleMin: 50}
	plain, err := runTrainPass(spec, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runTrainPass(spec, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.model, traced.model) {
		t.Error("traced run saved a different model")
	}
	if plain.deterministic() != traced.deterministic() {
		t.Errorf("traced run diverged:\n  untraced %s\n  traced   %s", plain.deterministic(), traced.deterministic())
	}
	agg := tr.aggregate()
	for _, name := range []string{"dqn.train", "dqn.values", "dqn.soft_update", "costmodel.cost",
		"core.train_offline", "core.suggest", "online.core.train_online", "online.dqn.train", "exec.run_batch"} {
		if agg[name] == nil || agg[name].Calls == 0 {
			t.Errorf("no %s spans", name)
		}
	}
	if got, want := agg["dqn.train"].Calls, plain.updates; got != want {
		t.Errorf("dqn.train spans = %d, want one per update (%d)", got, want)
	}
}

// bareQ implements QFunc and none of its optional interfaces.
type bareQ struct{ dqn.QFunc }

func TestTracedQForwardsOptionalInterfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	heads := map[string]dqn.QFunc{
		"multi":  dqn.NewMultiHeadQ(4, []int{8}, 3, 1e-3, rng),
		"scalar": dqn.NewScalarQ(4, []int{8}, [][]float64{{1, 0}, {0, 1}}, 1e-3, rng),
		"bare":   bareQ{dqn.NewMultiHeadQ(4, []int{8}, 3, 1e-3, rng)},
	}
	for name, q := range heads {
		w := tracedQ(newTracer(), q)
		_, wantBatch := q.(dqn.BatchValuer)
		_, wantFull := q.(dqn.FullStater)
		if _, got := w.(dqn.BatchValuer); got != wantBatch {
			t.Errorf("%s: BatchValuer forwarded = %v, want %v", name, got, wantBatch)
		}
		if _, got := w.(dqn.FullStater); got != wantFull {
			t.Errorf("%s: FullStater forwarded = %v, want %v", name, got, wantFull)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "advise", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.train_offline", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "dqn.train", Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: "costmodel.cost", Start: 60, End: 70},
	}}
	agg := tr.aggregate()
	want := map[string]float64{"advise": 20e-9, "core.train_offline": 40e-9, "dqn.train": 30e-9, "costmodel.cost": 10e-9}
	for name, self := range want {
		if got := agg[name].Self; got < self*0.999 || got > self*1.001 {
			t.Errorf("%s self = %g, want %g", name, got, self)
		}
	}
}
