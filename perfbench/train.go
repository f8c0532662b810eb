package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/guard"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

// trainSpec sizes one training workload: the cmd/advisor flow on one
// benchmark, offline only or followed by guarded online refinement.
type trainSpec struct {
	name   string // workload name
	bench  string
	scale  float64
	hp     core.Hyperparams
	online bool
	// sampleRate and sampleMin size the online phase's sampled database.
	sampleRate float64
	sampleMin  int
}

// trainPass is one set-up plus one train-to-suggest pass.
type trainPass struct {
	setupS  float64
	adviseS float64
	onlineS float64 // 0 without an online phase

	layout     string
	layoutSim  float64 // simulated seconds of the workload under the suggestion, full database
	onlineSim  float64 // OnlineStats.TotalSeconds()
	steps      int     // offline environment steps
	updates    int     // offline gradient updates
	onSteps    int
	onUpdates  int
	onQueries  int
	onHits     int
	onReparts  int
	onMoved    int64
	onCacheHit float64
	batchQs    int
	moved      int64
	cacheHit   float64
	allocMB    float64
	heapMB     float64
	model      []byte
}

// deterministic is the part of a pass that must repeat exactly for a seed.
func (p *trainPass) deterministic() string {
	return fmt.Sprintf("layout=%s layout_sim=%x online_sim=%x steps=%d updates=%d online_steps=%d online_updates=%d online_queries=%d",
		p.layout, p.layoutSim, p.onlineSim, p.steps, p.updates, p.onSteps, p.onUpdates, p.onQueries)
}

func pickBench(name string) *benchmarks.Benchmark {
	switch name {
	case "tpcds":
		return benchmarks.TPCDS()
	case "tpcch":
		return benchmarks.TPCCH()
	}
	panic("unknown benchmark " + name)
}

// trainSetup is everything a pass builds before its first training call.
type trainSetup struct {
	b    *benchmarks.Benchmark
	data map[string]*relation.Relation
	eng  *exec.Engine
	cm   *costmodel.Model
	adv  *core.Advisor
	hw   hardware.Profile
}

func setupTrain(spec trainSpec, seed int64) (*trainSetup, error) {
	b := pickBench(spec.bench)
	hw := hardware.PostgresXLDisk()
	data := b.Generate(spec.scale, seed)
	eng := exec.New(b.Schema, data, hw, exec.Disk)
	cm := costmodel.New(eng.TrueCatalog(), hw)
	adv, err := core.New(b.Space(), b.Workload, spec.hp, seed)
	if err != nil {
		return nil, err
	}
	return &trainSetup{b: b, data: data, eng: eng, cm: cm, adv: adv, hw: hw}, nil
}

// runTrainPass sets up and runs one pass. With tr non-nil the Q head and
// the offline cost function are decorated and every layer call is a span.
func runTrainPass(spec trainSpec, seed int64, tr *tracer) (*trainPass, error) {
	p := &trainPass{}
	t0 := time.Now()
	s, err := setupTrain(spec, seed)
	if err != nil {
		return nil, err
	}
	p.setupS = time.Since(t0).Seconds()
	b, eng, adv := s.b, s.eng, s.adv
	wl := b.Workload
	if tr != nil {
		adv.Agent.Q = tracedQ(tr, adv.Agent.Q)
	}
	offCost := tracedCost(tr, func(st *partition.State, freq workload.FreqVector) float64 {
		return s.cm.WorkloadCost(st, wl, freq)
	})
	freq := wl.UniformFreq()

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	root := tr.begin("advise")

	id := tr.begin("core.train_offline")
	err = adv.TrainOffline(offCost, nil)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("offline training: %w", err)
	}
	p.steps, p.updates = adv.StepsTrained, adv.TrainUpdates

	id = tr.begin("core.suggest")
	st, _, err := adv.Suggest(freq)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("suggest: %w", err)
	}

	if spec.online {
		if tr != nil {
			tr.phase = "online."
		}
		id = tr.begin("exec.build_sample")
		rng := rand.New(rand.NewSource(seed + 1))
		sampled := make(map[string]*relation.Relation, len(s.data))
		for _, tbl := range b.Schema.Tables { // schema order: deterministic sampling
			sampled[tbl.Name] = s.data[tbl.Name].Sample(spec.sampleRate, spec.sampleMin, rng)
		}
		sample := exec.New(b.Schema, sampled, s.hw, exec.Disk)
		g, gerr := guard.New(sample, wl, guard.DefaultConfig())
		tr.end(id)
		if gerr != nil {
			return nil, fmt.Errorf("guard: %w", gerr)
		}

		onStart := time.Now()
		id = tr.begin("core.scale_factors")
		scaleF, setupSec := core.ComputeScaleFactors(eng, sample, wl, st)
		tr.end(id)
		oc := core.NewOnlineCost(sample, wl, scaleF)
		oc.Stats.SetupSeconds = setupSec
		oc.Guard = g

		id = tr.begin("core.train_online")
		err = adv.TrainOnline(oc, nil)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("core.suggest")
		st, _, err = adv.SuggestBest(freq, oc)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("suggest best: %w", err)
		}
		p.onlineS = time.Since(onStart).Seconds()
		if tr != nil {
			tr.phase = ""
		}

		p.onSteps, p.onUpdates = adv.StepsTrained-p.steps, adv.TrainUpdates-p.updates
		p.onlineSim = oc.Stats.TotalSeconds()
		p.onQueries, p.onHits = oc.Stats.QueriesExecuted, oc.Stats.CacheHits
		_, p.onReparts, p.onMoved = sample.Counters()
		p.onCacheHit = shardCacheHitRatio(sample)
	}
	tr.end(root)
	p.adviseS = time.Since(start).Seconds()
	p.layout = st.String()

	gs := make([]*sqlparse.Graph, len(wl.Queries))
	for i, q := range wl.Queries {
		gs[i] = q.Graph
	}
	_, _, movedBefore := eng.Counters()
	id = tr.begin("exec.deploy")
	eng.Deploy(st, nil)
	tr.end(id)
	id = tr.begin("exec.run_batch")
	rep := eng.RunBatch(gs, 0)
	tr.end(id)
	if rep.Completed != len(gs) {
		return nil, fmt.Errorf("final batch completed %d of %d queries", rep.Completed, len(gs))
	}
	for i, e := range rep.Errs {
		if e != nil {
			return nil, fmt.Errorf("final batch query %s: %w", wl.Queries[i].Name, e)
		}
	}
	p.layoutSim = rep.Seconds
	p.batchQs = rep.Completed
	_, _, moved := eng.Counters()
	p.moved = moved - movedBefore
	p.cacheHit = shardCacheHitRatio(eng)

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if p.model, err = adv.SaveModel(); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(s)
	return p, nil
}

func shardCacheHitRatio(eng *exec.Engine) float64 {
	hits, misses, _, _ := eng.Cluster().ShardCacheStats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

var (
	offlineTPCDS = trainSpec{name: "offline-tpcds", bench: "tpcds", scale: 0.5, hp: core.Repro(true)}
	onlineTPCCH  = trainSpec{name: "online-tpcch", bench: "tpcch", scale: 0.5, hp: core.Repro(true), online: true, sampleRate: 0.2, sampleMin: 50}
)

func runOfflineTPCDS(seed int64, seconds float64, trace bool) (*outcome, error) {
	return runTrain(offlineTPCDS, seed, seconds, trace)
}

func runOnlineTPCCH(seed int64, seconds float64, trace bool) (*outcome, error) {
	return runTrain(onlineTPCCH, seed, seconds, trace)
}

// runTrain repeats set-up plus train-to-suggest passes for the run's
// seconds (at least one) and reports medians; passes of one seed must
// repeat exactly. The traced run is one untraced pass followed by one
// traced pass of the same seed.
func runTrain(spec trainSpec, seed int64, seconds float64, trace bool) (*outcome, error) {
	o := &outcome{}
	var passes []*trainPass
	var tr *tracer
	start := time.Now()
	more := func() bool {
		if trace {
			return len(passes) < 2
		}
		return len(passes) == 0 || time.Since(start).Seconds() < seconds
	}
	for more() {
		if trace && len(passes) == 1 {
			tr = newTracer()
		}
		p, err := runTrainPass(spec, seed, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d pass %d: setup %.3fs task %.3fs online %.3fs\n",
			spec.name, seed, len(passes)-1, p.setupS, p.adviseS, p.onlineS)
		runtime.GC()
	}
	o.attempted = len(passes)
	first := passes[0]
	for i, p := range passes[1:] {
		o.check(p.deterministic() == first.deterministic(),
			"pass %d differs from pass 0 for seed %d:\n  %s\n  %s", i+1, seed, p.deterministic(), first.deterministic())
		o.check(bytes.Equal(p.model, first.model), "pass %d saved a different model than pass 0", i+1)
	}
	diff, err := repeatCheck(spec.name, seed, fmt.Sprintf("%s model=%x", first.deterministic(), sha256.Sum256(first.model)))
	if err != nil {
		return nil, err
	}
	o.check(diff == "", "%s", diff)

	if trace {
		o.layers = trainLayers(tr, first, passes[1])
		cov := o.layers["trace.coverage"].Value
		o.check(cov >= 0.95, "trace.coverage %.3f < 0.95: layer spans miss part of task_s", cov)
		if err := tr.write(spanPath(spec.name, seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		return o, nil
	}

	// Set-up is cheap next to a pass: repeat it alone until there are at
	// least nine samples, so its median is steady.
	var setups, advise, alloc, heap []float64
	for _, p := range passes {
		setups = append(setups, p.setupS)
		advise = append(advise, p.adviseS)
		alloc = append(alloc, p.allocMB)
		heap = append(heap, p.heapMB)
	}
	for len(setups) < 9 {
		t := time.Now()
		if _, err := setupTrain(spec, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		runtime.GC()
	}
	e := metrics{}
	e.set("setup_s", median(setups), "s")
	e.set("task_s", median(advise), "s")
	e.set("layout_sim_s", first.layoutSim, "sim_s")
	e.set("alloc_mb", median(alloc), "MB")
	e.set("heap_mb", median(heap), "MB")
	o.e2e = e
	return o, nil
}

// trainLayers derives the per-layer metrics of a traced pass; untraced is
// the same seed's untraced pass, for the tracing overhead.
func trainLayers(tr *tracer, untraced, traced *trainPass) metrics {
	agg := tr.aggregate()
	get := func(name string) *layerStat {
		if s := agg[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	m := metrics{}
	for _, ph := range []string{"", "online."} {
		train := get(ph + "dqn.train")
		m.set(ph+"dqn.train.calls", float64(train.Calls), "count")
		m.set(ph+"dqn.train.busy_s", train.Busy, "s")
		m.set(ph+"dqn.values.calls", float64(get(ph+"dqn.values").Calls), "count")
		m.set(ph+"dqn.values.busy_s", get(ph+"dqn.values").Busy, "s")
		m.set(ph+"dqn.soft_update.busy_s", get(ph+"dqn.soft_update").Busy, "s")
	}
	train := get("dqn.train")
	m.set("dqn.train.p50_us", percentile(train.Durs, 50), "us")
	m.set("dqn.train.p99_us", percentile(train.Durs, 99), "us")
	cost := get("costmodel.cost")
	m.set("costmodel.calls", float64(cost.Calls), "count")
	m.set("costmodel.busy_s", cost.Busy, "s")
	m.set("costmodel.p50_us", percentile(cost.Durs, 50), "us")

	m.set("core.loop_self_s", get("core.train_offline").Self, "s")
	m.set("core.steps", float64(traced.steps), "count")
	m.set("core.updates", float64(traced.updates), "count")
	m.set("core.suggest_s", get("core.suggest").Busy+get("online.core.suggest").Busy, "s")
	m.set("online_s", untraced.onlineS, "s")
	m.set("online_sim_s", untraced.onlineSim, "sim_s")
	m.set("online.exec.build_sample_s", get("online.exec.build_sample").Busy, "s")
	m.set("online.core.measure_s", get("online.core.train_online").Self, "s")
	m.set("online.core.scale_factors_s", get("online.core.scale_factors").Busy, "s")
	m.set("online.core.queries_executed", float64(traced.onQueries), "count")
	if n := traced.onQueries + traced.onHits; n > 0 {
		m.set("online.core.cache_hit_ratio", float64(traced.onHits)/float64(n), "ratio")
	} else {
		m.set("online.core.cache_hit_ratio", 0, "ratio")
	}
	m.set("online.core.repartitions", float64(traced.onReparts), "count")
	m.set("online.cluster.bytes_moved", float64(traced.onMoved), "bytes")
	m.set("online.cluster.shard_cache_hit_ratio", traced.onCacheHit, "ratio")

	m.set("exec.deploy_s", get("exec.deploy").Busy, "s")
	m.set("exec.batch_s", get("exec.run_batch").Busy, "s")
	m.set("exec.batch_queries", float64(traced.batchQs), "count")
	m.set("cluster.bytes_moved", float64(traced.moved), "bytes")
	m.set("cluster.shard_cache_hit_ratio", traced.cacheHit, "ratio")

	// Coverage: the share of the train-to-suggest wall-clock that layer
	// spans attribute (the root's own self time is the unattributed rest).
	root := get("advise")
	covered := 0.0
	for name, s := range agg {
		if name != "advise" && !strings.HasPrefix(name, "exec.deploy") && !strings.HasPrefix(name, "exec.run_batch") {
			covered += s.Self
		}
	}
	if root.Busy > 0 {
		m.set("trace.coverage", covered/root.Busy, "ratio")
	}
	m.set("trace.overhead", traced.adviseS/untraced.adviseS-1, "ratio")
	m.set("trace.spans", float64(len(tr.spans)), "count")
	return m
}
