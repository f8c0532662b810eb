package core

import (
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// BenchmarkTrainOffline measures one offline training run on SSB behind
// the memoizing cost cache. The cost model is constructed fresh INSIDE the
// measured loop: its per-query memos warm as the run proceeds — exactly like
// a real training job — and a pre-warmed model would collapse every
// evaluation to a cache hit.
func BenchmarkTrainOffline(b *testing.B) {
	bench := benchmarks.SSB()
	data := bench.Generate(0.05, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	hp := Test()
	hp.Episodes = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := costmodel.New(cat, hardware.PostgresXLDisk())
		a, err := New(bench.Space(), bench.Workload, hp, 1)
		if err != nil {
			b.Fatal(err)
		}
		cc := env.NewCostCache(func(st *partition.State, f workload.FreqVector) float64 {
			return cm.WorkloadCost(st, bench.Workload, f)
		}, 0)
		if err := a.TrainOffline(cc.Cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}
