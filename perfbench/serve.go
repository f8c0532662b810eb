package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partadvisor/internal/serve"
)

// serveTenants are the tenants of serve-mixed: three schemas of different
// size, so whole-workload batches differ in cost and the fair scheduler
// has something to balance.
var serveTenants = []serve.TenantSpec{
	{ID: "tpcch", Bench: "tpcch", Scale: 0.2},
	{ID: "ssb", Bench: "ssb", Scale: 0.3},
	{ID: "micro", Bench: "micro", Scale: 0.3},
}

const (
	// openRate is the open-loop arrival rate in batches per second:
	// about half the closed-loop capacity of a 2-CPU host, so the open
	// loop measures latency below saturation.
	openRate = 25.0
	// soloBatches is how many batches each tenant serves alone, one
	// client and an empty queue, before the load phases.
	soloBatches = 5
	// setupReps is how many times a run starts the server and creates the
	// tenants; setup_s is their median.
	setupReps = 5
	// bootstrapEpisodes is the offline bootstrap every tenant runs at
	// creation (the serve default), subtracted from EpisodesTrained to
	// count the episodes advised in the background.
	bootstrapEpisodes = 30
)

// startServer builds a server with the default envelope and creates the
// tenants, each seeded apart from the others.
func startServer(seed int64) (*serve.Server, []*serve.Tenant, error) {
	srv, err := serve.NewServer(serve.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	var ts []*serve.Tenant
	for i, spec := range serveTenants {
		spec.Seed = seed*int64(len(serveTenants)) + int64(i) + 1
		t, err := srv.CreateTenant(spec)
		if err != nil {
			stopServer(srv)
			return nil, nil, fmt.Errorf("create tenant %s: %w", spec.ID, err)
		}
		ts = append(ts, t)
	}
	return srv, ts, nil
}

// stopServer drains the server and waits for every tenant's advising
// goroutine to stop.
func stopServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := srv.Shutdown(ctx)
	return err
}

// served is one request's outcome.
type served struct {
	lat  float64   // milliseconds from due time (open loop) or submit (closed loop)
	done time.Time // when the answer arrived
	sim  float64   // simulated seconds the batch was charged
	miss bool      // shed, failed or cancelled
	bad  string    // non-empty when the batch was served short
}

// submit sends one whole-workload batch and waits for it. start is the
// instant the request's latency is measured from.
func submit(srv *serve.Server, t *serve.Tenant, tr *tracer, parent int, req int64, start time.Time) served {
	s0 := time.Now()
	wait, err := srv.SubmitBatch(context.Background(), t, nil, 1, 0, 1, 0)
	s1 := time.Now()
	tr.record("serve.submit", parent, req, s0, s1)
	if err != nil {
		return served{miss: true, done: s1}
	}
	res, err := wait()
	end := time.Now()
	tr.record("serve.batch", parent, req, s0, end)
	out := served{lat: float64(end.Sub(start)) / 1e6, done: end, sim: res.SimSeconds}
	switch {
	case err != nil || res.Cancelled:
		out.miss = true
	case res.Completed != res.Requested:
		out.bad = fmt.Sprintf("tenant %s batch %d served %d of %d queries", t.Spec.ID, req, res.Completed, res.Requested)
	}
	return out
}

// serveRun is everything one serve-mixed run measures.
type serveRun struct {
	setupS    float64
	layoutSim float64 // Σ tenants' whole-workload simulated seconds under the bootstrap suggestion
	soloMS    map[string]float64
	open      []served
	openLagMS float64 // how late the generator ran, worst case
	closed    []served
	closedS   float64
	allocMB   float64
	heapMB    float64
	stats     serve.GlobalStats
	tenants   []serve.TenantStats
}

// runServeMixed: solo batches per tenant, then an open loop of seeded
// Poisson arrivals at openRate for half the run, then a closed loop of
// GOMAXPROCS clients serving a fixed count, whose wall-clock is task_s.
// Batches go round-robin over the tenants while their background advising
// runs.
func runServeMixed(seed int64, seconds float64, trace bool) (*outcome, error) {
	var setups []float64
	var srv *serve.Server
	var ts []*serve.Tenant
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			if err := stopServer(srv); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
			srv = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		srv, ts, err = startServer(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	r, err := loadServer(srv, ts, seed, seconds, tr)
	if serr := stopServer(srv); err == nil && serr != nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	r.setupS = median(setups)

	o := &outcome{}
	all := append(append([]served(nil), r.open...), r.closed...)
	for _, s := range all {
		o.attempted++
		if s.miss {
			o.failed++
		}
		o.check(s.bad == "", "%s", s.bad)
	}
	o.attempted += len(ts) * soloBatches
	diff, err := repeatCheck("serve-mixed", seed, fmt.Sprintf("layout_sim=%x", r.layoutSim))
	if err != nil {
		return nil, err
	}
	o.check(diff == "", "%s", diff)
	openLat := latencies(r.open)
	o.check(openLat.TailPct == 95, "open loop has %d samples, too few for a p95 (raise --seconds)", openLat.N)
	if trace {
		o.layers = serveLayers(tr, r)
		if err := tr.write(spanPath("serve-mixed", seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		return o, nil
	}
	e := metrics{}
	e.set("setup_s", r.setupS, "s")
	e.set("task_s", r.closedS, "s")
	e.set("layout_sim_s", r.layoutSim, "sim_s")
	e.set("alloc_mb", r.allocMB, "MB")
	e.set("heap_mb", r.heapMB, "MB")
	o.e2e = e
	return o, nil
}

// closedWindow is how many closed-loop answers make one window.
const closedWindow = 50

// windowedSeconds is the closed loop's wall-clock for all its batches,
// taken as the median window of closedWindow consecutive answers times
// the number of windows: a burst of outside load on the host moves one
// window, not the figure.
func windowedSeconds(start time.Time, ss []served) float64 {
	done := make([]time.Time, len(ss))
	for i, s := range ss {
		done[i] = s.done
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var windows []float64
	prev := start
	for k := closedWindow - 1; k < len(done); k += closedWindow {
		windows = append(windows, done[k].Sub(prev).Seconds())
		prev = done[k]
	}
	return median(windows) * float64(len(ss)) / closedWindow
}

func latencies(ss []served) latency {
	var lat []float64
	misses := 0
	for _, s := range ss {
		if s.miss {
			misses++
		} else {
			lat = append(lat, s.lat)
		}
	}
	return summarize(lat, misses)
}

// loadServer runs the solo, open-loop and closed-loop phases.
func loadServer(srv *serve.Server, ts []*serve.Tenant, seed int64, seconds float64, tr *tracer) (*serveRun, error) {
	r := &serveRun{soloMS: make(map[string]float64)}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Solo: the first batch of a tenant runs on its bootstrap layout
	// (advising starts only once traffic is observed), so its simulated
	// seconds are the layout quality of the bootstrap suggestion.
	phase := tr.begin("serve.solo")
	for _, t := range ts {
		var ms []float64
		for i := 0; i < soloBatches; i++ {
			s := submit(srv, t, tr, phase, 0, time.Now())
			if s.miss || s.bad != "" {
				return nil, fmt.Errorf("solo batch on %s was not served in full %s", t.Spec.ID, s.bad)
			}
			ms = append(ms, s.lat)
			if i == 0 {
				r.layoutSim += s.sim
			}
		}
		r.soloMS[t.Spec.ID] = median(ms)
	}
	tr.end(phase)

	// Open loop: each request is timed from its due time, so a stalled
	// generator or a growing queue shows as latency.
	phase = tr.begin("serve.open_loop")
	n := int(openRate * seconds / 2)
	rng := rand.New(rand.NewSource(seed))
	r.open = make([]served, n)
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / openRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		if lag := float64(time.Since(due)) / 1e6; lag > r.openLagMS {
			r.openLagMS = lag
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			r.open[i] = submit(srv, ts[i%len(ts)], tr, phase, int64(i+1), due)
		}(i, due)
	}
	wg.Wait()
	tr.end(phase)

	// Closed loop: GOMAXPROCS clients, each sending its next batch when
	// the previous one returns, until twice the open loop's count is
	// served (about half a run at twice the open-loop rate).
	phase = tr.begin("serve.closed_loop")
	clients := runtime.GOMAXPROCS(0)
	r.closed = make([]served, 2*n)
	var next atomic.Int64
	start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(r.closed); k = int(next.Add(1)) - 1 {
				r.closed[k] = submit(srv, ts[k%len(ts)], tr, phase, int64(n+1+k), time.Now())
			}
		}()
	}
	wg.Wait()
	r.closedS = windowedSeconds(start, r.closed)
	tr.end(phase)

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.stats = srv.Stats()
	for _, t := range ts {
		r.tenants = append(r.tenants, t.Stats())
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	return r, nil
}

// serveLayers derives the per-layer metrics of a traced serve-mixed run.
func serveLayers(tr *tracer, r *serveRun) metrics {
	m := metrics{}
	open := latencies(r.open)
	m.set("batch_p50_ms", open.P50, "ms")
	m.set("batch_p95_ms", open.Tail, "ms")
	m.set("batch_samples", float64(open.N), "count")
	m.set("open_lag_ms", r.openLagMS, "ms")
	done := 0
	for _, s := range r.closed {
		if !s.miss {
			done++
		}
	}
	m.set("serve_bps", float64(done)/r.closedS, "batches/s")
	misses := open.Misses + latencies(r.closed).Misses
	m.set("error_rate", float64(misses)/float64(len(r.open)+len(r.closed)), "ratio")

	var submits []float64
	for _, s := range tr.spans {
		if s.Name == "serve.submit" {
			submits = append(submits, float64(s.End-s.Start)/1e3)
		}
	}
	m.set("serve.submit_p99_us", percentile(submits, 99), "us")
	m.set("serve.shed", float64(r.stats.ShedQueue+r.stats.ShedPriority), "count")
	m.set("serve.tier_escalations", float64(r.stats.Escalations), "count")
	m.set("serve.advise_cycles", float64(r.stats.AdviseCycles), "count")
	m.set("serve.paused_cycles", float64(r.stats.PausedCycles), "count")
	episodes, reparts := 0, 0
	for _, t := range r.tenants {
		episodes += t.EpisodesTrained - bootstrapEpisodes
		reparts += t.Repartitions
	}
	m.set("serve.advise_episodes", float64(episodes), "count")
	m.set("serve.repartitions", float64(reparts), "count")
	for id, ms := range r.soloMS {
		m.set("serve.solo_ms."+id, ms, "ms")
	}
	m.set("trace.spans", float64(len(tr.spans)), "count")
	return m
}
