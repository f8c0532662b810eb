package exec

import (
	"sync"
	"testing"

	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/sqlparse"
)

// batchGraphs builds a mixed bag of workload queries (joins, filters,
// semijoins) large enough to exercise the worker pool.
func batchGraphs(t *testing.T) []*sqlparse.Graph {
	t.Helper()
	sqls := []string{
		"SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id",
		"SELECT * FROM orders WHERE o_amount > 100",
		"SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id AND c.c_region = 2",
		"SELECT * FROM customer c WHERE c.c_id IN (SELECT o.o_c_id FROM orders o WHERE o.o_amount > 500)",
		"SELECT * FROM orderline l, orders o WHERE l.ol_o_id = o.o_id",
		"SELECT * FROM customer c WHERE c.c_id NOT IN (SELECT o.o_c_id FROM orders o)",
	}
	var gs []*sqlparse.Graph
	for i := 0; i < 3; i++ { // repeat so len(gs) > any worker count used
		for _, s := range sqls {
			gs = append(gs, engGraph(t, s))
		}
	}
	return gs
}

// TestRunBatchMatchesSequential is the no-faults half of the determinism
// contract: batch totals are bit-identical to executing the queries one by
// one through Execute and summing in position order.
func TestRunBatchMatchesSequential(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	seqEng := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	batEng := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	gs := batchGraphs(t)

	var seqTotal float64
	seqSeconds := make([]float64, len(gs))
	for i, g := range gs {
		rep, err := seqEng.Execute(g, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		seqSeconds[i] = rep.Seconds
		seqTotal += rep.Seconds
	}

	for _, workers := range []int{1, 4, 0} {
		rep := batEng.RunBatchQueriesAbort(toBatch(gs, 0), workers, nil, nil)
		for i := range gs {
			if rep.Reports[i].Seconds != seqSeconds[i] {
				t.Fatalf("workers=%d query %d: batch %v != sequential %v",
					workers, i, rep.Reports[i].Seconds, seqSeconds[i])
			}
			if rep.Errs[i] != nil {
				t.Fatalf("workers=%d query %d: unexpected error %v", workers, i, rep.Errs[i])
			}
		}
		if rep.Seconds != seqTotal {
			t.Fatalf("workers=%d: batch total %v != sequential total %v", workers, rep.Seconds, seqTotal)
		}
		batEng.ResetClock()
	}
	if got, _, _ := batEng.Counters(); got != 3*len(gs) {
		t.Fatalf("QueriesExecuted = %d, want %d", got, 3*len(gs))
	}
}

func toBatch(gs []*sqlparse.Graph, limit float64) []BatchQuery {
	qs := make([]BatchQuery, len(gs))
	for i, g := range gs {
		qs[i] = BatchQuery{Graph: g, Limit: limit}
	}
	return qs
}

// TestRunBatchDeterministicUnderFaults is the faulted half of the contract:
// with an armed schedule (straggler, crash, transient failures) the whole
// report — per-position runtimes, errors, degraded time — is a pure
// function of the batch, identical for every worker count.
func TestRunBatchDeterministicUnderFaults(t *testing.T) {
	cfg := faults.Config{
		Seed:                 11,
		TransientFailureRate: 0.2,
		Crashes:              []faults.NodeCrash{{Node: 2, Window: faults.Window{Start: 0, End: 1e9}}},
		Stragglers: []faults.Straggler{
			{Node: 1, Factor: 2.5, Window: faults.Window{Start: 0, End: 1e9}},
		},
	}
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)

	type outcome struct {
		rep  BatchReport
		errs []string
	}
	run := func(workers int) outcome {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.SetFaults(faults.MustNew(cfg))
		rep := e.RunBatchQueriesAbort(toBatch(gs, 0), workers, nil, nil)
		errs := make([]string, len(rep.Errs))
		for i, err := range rep.Errs {
			if err != nil {
				errs[i] = err.Error()
			}
		}
		return outcome{rep, errs}
	}

	base := run(1)
	var sawTransient, sawDegraded bool
	for i := range gs {
		if base.errs[i] != "" {
			sawTransient = true
		}
		if base.rep.Reports[i].DegradedSeconds > 0 {
			sawDegraded = true
		}
	}
	if !sawTransient {
		t.Fatal("20% transient rate produced no failures in the batch")
	}
	if !sawDegraded {
		t.Fatal("always-on straggler produced no degraded seconds")
	}

	for _, workers := range []int{2, 8, 0} {
		got := run(workers)
		if got.rep.Seconds != base.rep.Seconds ||
			got.rep.Aborts != base.rep.Aborts ||
			got.rep.DegradedSeconds != base.rep.DegradedSeconds {
			t.Fatalf("workers=%d totals diverge: %+v vs %+v", workers, got.rep, base.rep)
		}
		for i := range gs {
			if got.rep.Reports[i] != base.rep.Reports[i] {
				t.Fatalf("workers=%d query %d report diverges: %+v vs %+v",
					workers, i, got.rep.Reports[i], base.rep.Reports[i])
			}
			if got.errs[i] != base.errs[i] {
				t.Fatalf("workers=%d query %d error diverges: %q vs %q",
					workers, i, got.errs[i], base.errs[i])
			}
		}
	}
}

// TestRunBatchTransientDrawsPositional pins the derivation of batch
// transient failures to (seed, batch number, position): the observed
// failure pattern must match a direct recomputation, and successive batches
// must use successive batch numbers.
func TestRunBatchTransientDrawsPositional(t *testing.T) {
	cfg := faults.Config{Seed: 5, TransientFailureRate: 0.3}
	e := New(engSchema(), engData(30, 150, 300, 2), hardware.PostgresXLDisk(), Disk)
	in := faults.MustNew(cfg)
	e.SetFaults(in)
	gs := batchGraphs(t)

	for batch := uint64(0); batch < 3; batch++ {
		rep := e.RunBatch(gs, 0)
		for i := range gs {
			want := in.TransientFailureAt(batch, i)
			if got := rep.Errs[i] != nil; got != want {
				t.Fatalf("batch %d query %d: failed=%v, positional draw says %v", batch, i, got, want)
			}
			if rep.Errs[i] != nil && !IsTransient(rep.Errs[i]) {
				t.Fatalf("batch %d query %d: error %v is not transient", batch, i, rep.Errs[i])
			}
		}
	}
}

// TestRunBatchLimits: a uniform §4.2 limit aborts the same queries the
// sequential path would abort, and the empty batch is a no-op.
func TestRunBatchLimits(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	gs := batchGraphs(t)

	full := e.RunBatch(gs, 0)
	if full.Aborts != 0 {
		t.Fatalf("unlimited batch aborted %d queries", full.Aborts)
	}
	limit := full.Reports[0].Seconds / 2
	lim := e.RunBatch(gs[:1], limit)
	if lim.Aborts != 1 || !lim.Reports[0].Aborted {
		t.Fatal("half-runtime limit did not abort the query")
	}
	if lim.Reports[0].Seconds > limit {
		t.Fatalf("aborted query consumed %v > limit %v", lim.Reports[0].Seconds, limit)
	}

	before := e.SimNow()
	empty := e.RunBatch(nil, 0)
	if empty.Seconds != 0 || len(empty.Reports) != 0 || e.SimNow() != before {
		t.Fatal("empty batch is not a no-op")
	}
}

// TestRunBatchConcurrentWithEngineOps drives parallel batches, deploys,
// catalog refreshes and clock reads on one engine from many goroutines —
// the -race safety net for the executor's read paths (shards, catalogs,
// relation column lookups) being mutation-free.
func TestRunBatchConcurrentWithEngineOps(t *testing.T) {
	e := New(engSchema(), engData(30, 150, 300, 2), hardware.PostgresXLDisk(), Disk)
	gs := batchGraphs(t)
	sp := engSpace()
	st := sp.InitialState()
	for _, vi := range sp.ValidActions(st, nil) {
		st = sp.Apply(st, sp.Actions()[vi])
		break
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				switch w % 3 {
				case 0:
					e.RunBatchQueriesAbort(toBatch(gs, 0), 0, nil, nil)
				case 1:
					e.Deploy(st, nil)
					e.Analyze()
				default:
					e.RunBatch(gs[:4], 0)
					e.SimNow()
					e.Counters()
				}
			}
		}()
	}
	wg.Wait()
}
