// Package bench holds the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (running the exact experiment
// code of internal/experiments at test scale), component micro-benchmarks
// for the substrates, and ablation benches for the design choices called
// out in DESIGN.md.
//
// Regenerate the paper artifacts at full repro scale with
// `go run ./cmd/expdriver`; these benches exist to exercise the same code
// paths under testing.B and to track performance regressions.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/cluster"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/experiments"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// benchConfig is the scale used by the per-figure benches.
func benchConfig() experiments.Config {
	return experiments.TestConfig()
}

// runExperiment is the shared per-figure bench body.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// --- One bench per paper table/figure --------------------------------------

func BenchmarkTable1(b *testing.B)              { runExperiment(b, "table1") }
func BenchmarkFig3aSSBDisk(b *testing.B)        { runExperiment(b, "fig3a") }
func BenchmarkFig3bSSBMemory(b *testing.B)      { runExperiment(b, "fig3b") }
func BenchmarkFig3cTPCDSDisk(b *testing.B)      { runExperiment(b, "fig3c") }
func BenchmarkFig3dTPCDSMemory(b *testing.B)    { runExperiment(b, "fig3d") }
func BenchmarkFig3eTPCCHDisk(b *testing.B)      { runExperiment(b, "fig3e") }
func BenchmarkFig3fTPCCHMemory(b *testing.B)    { runExperiment(b, "fig3f") }
func BenchmarkFig4aOnline(b *testing.B)         { runExperiment(b, "fig4a") }
func BenchmarkFig4bUpdates(b *testing.B)        { runExperiment(b, "fig4b") }
func BenchmarkTable2Optimizations(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig5Committee(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig7aLearnedCosts(b *testing.B)   { runExperiment(b, "fig7a") }
func BenchmarkFig7bAdaptivity(b *testing.B)     { runExperiment(b, "fig7b") }
func BenchmarkFig8aDeployment(b *testing.B)     { runExperiment(b, "fig8a") }
func BenchmarkFig8bSlowCompute(b *testing.B)    { runExperiment(b, "fig8b") }

func BenchmarkFig6Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Fig6(cfg, []int{2, 4}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benches ------------------------------------------------------

func BenchmarkCostModelQuery(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.1, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	sp := bench.Space()
	st := sp.InitialState()
	g := bench.Workload.Queries[4].Graph // Q5: 7-way join
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.ResetCache()
		cm.QueryCost(st, g)
	}
}

func BenchmarkEngineRunQuery(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	e.Deploy(bench.Space().InitialState(), nil)
	g := bench.Workload.Queries[2].Graph // Q3: 4-way join
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(g)
	}
}

func BenchmarkEngineDeploy(b *testing.B) {
	bench := benchmarks.SSB()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	sp := bench.Space()
	s0 := sp.InitialState()
	alt := sp.Apply(s0, partition.Action{Kind: partition.ActReplicate, Table: sp.TableIndex("customer")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			e.Deploy(alt, nil)
		} else {
			e.Deploy(s0, nil)
		}
	}
}

func BenchmarkEnvStep(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.05, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	sp := bench.Space()
	e, err := env.New(sp, bench.Workload, func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}, len(sp.Tables)+4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	freq := bench.Workload.UniformFreq()
	e.Reset(freq)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valid := e.ValidActions()
		_, _, done := e.Step(valid[rng.Intn(len(valid))])
		if done {
			e.Reset(freq)
		}
	}
	_ = buf
}

func BenchmarkTrainingEpisode(b *testing.B) {
	bench := benchmarks.Micro()
	data := bench.Generate(0.2, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.SystemXMemory())
	hp := core.Test()
	hp.Episodes = 1
	adv, err := core.New(bench.Space(), bench.Workload, hp, 1)
	if err != nil {
		b.Fatal(err)
	}
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeployRevisit alternates SSB's fact table between two hash keys —
// the training loop's dominant deploy pattern (every episode revisits a
// handful of layouts). With the shard cache each revisit is a pointer swap
// plus memoized bytes-moved accounting; uncached, every deploy re-hashes
// the full table.
func benchDeployRevisit(b *testing.B, cacheBytes int64) {
	b.Helper()
	bench := benchmarks.SSB()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	c := e.Cluster()
	c.SetShardCacheLimit(cacheBytes)
	designs := []cluster.Design{
		{Key: []string{"lo_custkey"}},
		{Key: []string{"lo_suppkey"}},
	}
	// Materialize both layouts once so the cached variant measures pure
	// revisits (the uncached variant rebuilds regardless).
	c.Deploy("lineorder", designs[0])
	c.Deploy("lineorder", designs[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Deploy("lineorder", designs[i%2])
	}
}

// BenchmarkDeployRevisit vs ...Uncached: the shard-memoization speedup
// claim (limit 0 restores the pre-cache engine behavior).
func BenchmarkDeployRevisit(b *testing.B)         { benchDeployRevisit(b, cluster.DefaultShardCacheBytes) }
func BenchmarkDeployRevisitUncached(b *testing.B) { benchDeployRevisit(b, 0) }

// benchRunBatch measures one TPC-CH workload evaluated as a batch with the
// given worker count (0 = GOMAXPROCS). The batch contract makes all
// variants return bit-identical totals; only wall-clock differs. Workers
// execute against the immutable layout snapshot with pooled scratch
// arenas, so steady-state bytes/op stays flat in the worker count.
func benchRunBatch(b *testing.B, workers int) {
	b.Helper()
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	e.Deploy(bench.Space().InitialState(), nil)
	qs := make([]exec.BatchQuery, len(bench.Workload.Queries))
	for i, q := range bench.Workload.Queries {
		qs[i] = exec.BatchQuery{Graph: q.Graph}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunBatchQueriesAbort(qs, workers, nil, nil)
	}
}

// BenchmarkRunBatchSequential vs ...Parallel: the workload-evaluation
// fan-out speedup. On a single-core machine the pool is starved and the
// two variants converge; the gap scales with GOMAXPROCS.
func BenchmarkRunBatchSequential(b *testing.B) { benchRunBatch(b, 1) }
func BenchmarkRunBatchParallel(b *testing.B)   { benchRunBatch(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRunBatchWorkers sweeps the worker count 1, 2, 4, … up to
// NumCPU — the saturation curve for the batch pool. Sub-benchmark names
// are stable (`workers=N`) so bench.sh can graph the curve per machine.
func BenchmarkRunBatchWorkers(b *testing.B) {
	max := runtime.NumCPU()
	for w := 1; ; w *= 2 {
		if w > max {
			break
		}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchRunBatch(b, w) })
	}
	if max > 1 && max&(max-1) != 0 { // NumCPU itself when not a power of two
		b.Run(fmt.Sprintf("workers=%d", max), func(b *testing.B) { benchRunBatch(b, max) })
	}
}

// --- Parallelism benches -----------------------------------------------------

// BenchmarkTrainOfflineSSB trains the SSB advisor with the paper's 128-64
// hidden layers behind the bounded cost cache. The nn kernels run inline;
// parallelism lives one level up, across committee experts and tenants.
func BenchmarkTrainOfflineSSB(b *testing.B) {
	bench := benchmarks.SSB()
	data := bench.Generate(0.05, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	hp := core.Test()
	hp.Episodes = 30
	hp.DQN.Hidden = []int{128, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := core.New(bench.Space(), bench.Workload, hp, 1)
		if err != nil {
			b.Fatal(err)
		}
		cache := env.NewCostCache(func(st *partition.State, f workload.FreqVector) float64 {
			return cm.WorkloadCost(st, bench.Workload, f)
		}, 0)
		if err := adv.TrainOffline(cache.Cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCommitteeBuild builds the §5 committee sequentially or with
// goroutine-per-expert training.
func benchCommitteeBuild(b *testing.B, sequential bool) {
	b.Helper()
	bench := benchmarks.Micro()
	data := bench.Generate(0.2, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.SystemXMemory())
	sp := bench.Space()
	hp := core.Test()
	hp.Episodes = 30
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive, err := core.New(sp, bench.Workload, hp, 11)
		if err != nil {
			b.Fatal(err)
		}
		if err := naive.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultCommitteeConfig(naive)
		cfg.ExpertEpisodes = 10
		cfg.Sequential = sequential
		if _, err := core.BuildCommittee(naive, cost, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommitteeBuildSequential(b *testing.B) { benchCommitteeBuild(b, true) }
func BenchmarkCommitteeBuildParallel(b *testing.B)   { benchCommitteeBuild(b, false) }

// BenchmarkCostCache measures the memoization win on the offline cost hot
// path: repeated (state, mix) evaluations against TPC-CH's 7-way-join query.
func BenchmarkCostCache(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.1, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	sp := bench.Space()
	st := sp.InitialState()
	freq := bench.Workload.UniformFreq()
	cache := env.NewCostCache(func(s *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(s, bench.Workload, f)
	}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Cost(st, freq)
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) --------------

// ablationTrain trains an advisor on the microbenchmark and reports the
// quality (measured workload runtime of its suggestion) as a bench metric.
func ablationTrain(b *testing.B, head core.QHead, disableEdges bool) {
	b.Helper()
	bench := benchmarks.Micro()
	data := bench.Generate(0.3, 2)
	e := exec.New(bench.Schema, data, hardware.SystemXMemory(), exec.Memory)
	cm := costmodel.New(e.TrueCatalog(), e.HW)
	sp := partition.NewSpace(bench.Schema,
		bench.Workload.JoinEdges(bench.Schema.ForeignKeyEdges()),
		partition.Options{DisableEdges: disableEdges})
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	var quality float64
	for i := 0; i < b.N; i++ {
		hp := core.Test()
		hp.Head = head
		adv, err := core.New(sp, bench.Workload, hp, int64(i+3))
		if err != nil {
			b.Fatal(err)
		}
		if err := adv.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
		st, _, err := adv.Suggest(bench.Workload.UniformFreq())
		if err != nil {
			b.Fatal(err)
		}
		e.Deploy(st, nil)
		total := 0.0
		for _, q := range bench.Workload.Queries {
			total += e.Run(q.Graph)
		}
		quality += total
	}
	b.ReportMetric(quality/float64(b.N)*1e3, "sim-ms/workload")
}

// BenchmarkAblationQHeadMultiHead and ...Scalar compare the fast multi-head
// Q-network against the paper-faithful scalar Q(s,a) head: equivalent
// quality, very different training cost.
func BenchmarkAblationQHeadMultiHead(b *testing.B) { ablationTrain(b, core.MultiHead, false) }
func BenchmarkAblationQHeadScalar(b *testing.B)    { ablationTrain(b, core.ScalarHead, false) }

// BenchmarkAblationEdgeActions removes the co-partitioning edge actions the
// paper argues reduce exploration of sub-optimal designs.
func BenchmarkAblationEdgeActionsOn(b *testing.B)  { ablationTrain(b, core.MultiHead, false) }
func BenchmarkAblationEdgeActionsOff(b *testing.B) { ablationTrain(b, core.MultiHead, true) }

// ablationDouble trains with vanilla vs Double-DQN targets.
func ablationDouble(b *testing.B, double bool) {
	b.Helper()
	bench := benchmarks.Micro()
	data := bench.Generate(0.3, 4)
	e := exec.New(bench.Schema, data, hardware.SystemXMemory(), exec.Memory)
	cm := costmodel.New(e.TrueCatalog(), e.HW)
	sp := bench.Space()
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	var quality float64
	for i := 0; i < b.N; i++ {
		hp := core.Test()
		hp.DQN.Double = double
		adv, err := core.New(sp, bench.Workload, hp, int64(i+5))
		if err != nil {
			b.Fatal(err)
		}
		if err := adv.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
		st, _, err := adv.Suggest(bench.Workload.UniformFreq())
		if err != nil {
			b.Fatal(err)
		}
		quality += cost(st, bench.Workload.UniformFreq())
	}
	b.ReportMetric(quality/float64(b.N)*1e3, "est-sim-ms/workload")
}

// BenchmarkAblationDoubleDQN* compare vanilla DQN (the paper's algorithm)
// against Double-DQN targets.
func BenchmarkAblationDoubleDQNOff(b *testing.B) { ablationDouble(b, false) }
func BenchmarkAblationDoubleDQNOn(b *testing.B)  { ablationDouble(b, true) }
