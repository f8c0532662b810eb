package exec

import (
	"runtime"
	"sync"
	"testing"

	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
)

// whatIfDesigns are the candidate layouts the what-if tests sweep: a
// replicated dimension, a co-partitioning, everything replicated, and the
// unchanged initial layout.
func whatIfDesigns(t *testing.T) []map[string]string {
	t.Helper()
	return []map[string]string{
		{},
		{"customer": "R"},
		{"orders": "o_c_id"},
		{"orders": "R", "customer": "R"},
		{"orders": "o_c_id", "customer": "R", "orderline": "ol_o_id"},
	}
}

// TestEvalDesignSnapshotMatchesDeployedMeasurement: a what-if evaluation of
// a design must report, per position, exactly the seconds a fault-free
// engine reports after actually deploying that design.
func TestEvalDesignSnapshotMatchesDeployedMeasurement(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)
	sp := engSpace()

	for di, mods := range whatIfDesigns(t) {
		st := buildState(t, sp, mods)

		whatIf := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		got := whatIf.EvalDesignSnapshot(st, toBatch(gs, 0), 1)

		deployed := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		deployed.Deploy(st, nil)
		want := deployed.RunBatchQueriesAbort(toBatch(gs, 0), 1, nil, nil)

		if got.Seconds != want.Seconds || got.Aborts != want.Aborts {
			t.Fatalf("design %d (%v): what-if totals (%v, %d) != deployed (%v, %d)",
				di, mods, got.Seconds, got.Aborts, want.Seconds, want.Aborts)
		}
		for i := range gs {
			if got.Reports[i] != want.Reports[i] {
				t.Fatalf("design %d query %d: what-if report %+v != deployed %+v",
					di, i, got.Reports[i], want.Reports[i])
			}
		}
	}
}

// TestEvalDesignSnapshotBitIdenticalAcrossWorkers pins the what-if
// determinism contract: the full report is bit-identical at every worker
// count.
func TestEvalDesignSnapshotBitIdenticalAcrossWorkers(t *testing.T) {
	e, _ := newEngine(t)
	gs := batchGraphs(t)
	sp := engSpace()
	st := buildState(t, sp, map[string]string{"orders": "o_c_id", "customer": "R"})

	base := e.EvalDesignSnapshot(st, toBatch(gs, 0), 1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		rep := e.EvalDesignSnapshot(st, toBatch(gs, 0), workers)
		if rep.Seconds != base.Seconds || rep.Aborts != base.Aborts {
			t.Fatalf("workers=%d totals diverge: %v vs %v", workers, rep.Seconds, base.Seconds)
		}
		for i := range gs {
			if rep.Reports[i] != base.Reports[i] {
				t.Fatalf("workers=%d query %d report diverges", workers, i)
			}
		}
	}
}

// TestEvalDesignSnapshotPerturbsNothing: what-if evaluations — even
// interleaved with deployed batches, with faults armed — must not move the
// clock, counters, revision, designs or the transient-failure stream. Two
// engines run the identical deployed-operation sequence; one additionally
// does what-if evaluations between every step. Every deployed observation
// must match.
func TestEvalDesignSnapshotPerturbsNothing(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)
	sp := engSpace()
	cands := make([]map[string]string, 0)
	cands = append(cands, whatIfDesigns(t)...)

	mk := func() *Engine {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.SetFaults(faults.MustNew(snapshotFaultCfg()))
		return e
	}
	control, probed := mk(), mk()

	speculate := func() {
		for _, mods := range cands {
			probed.EvalDesignSnapshot(buildState(t, sp, mods), toBatch(gs, 0), 2)
		}
	}

	deployedSeq := []map[string]string{
		{"orders": "o_c_id"},
		{"customer": "R"},
		{},
	}
	for step, mods := range deployedSeq {
		speculate()
		st := buildState(t, sp, mods)
		secC := control.Deploy(st, nil)
		secP := probed.Deploy(st, nil)
		if secC != secP {
			t.Fatalf("step %d: deploy seconds diverge %v vs %v", step, secC, secP)
		}
		speculate()
		repC := control.RunBatchQueriesAbort(toBatch(gs, 0), 2, nil, nil)
		repP := probed.RunBatchQueriesAbort(toBatch(gs, 0), 2, nil, nil)
		if repC.Seconds != repP.Seconds || repC.DegradedSeconds != repP.DegradedSeconds {
			t.Fatalf("step %d: deployed batch diverges (%v, %v) vs (%v, %v)",
				step, repP.Seconds, repP.DegradedSeconds, repC.Seconds, repC.DegradedSeconds)
		}
		for i := range gs {
			if repC.Reports[i] != repP.Reports[i] {
				t.Fatalf("step %d query %d: deployed report diverges", step, i)
			}
		}
		if control.SimNow() != probed.SimNow() {
			t.Fatalf("step %d: clocks diverge %v vs %v", step, control.SimNow(), probed.SimNow())
		}
		qc, rc, bc := control.Counters()
		qp, rp, bp := probed.Counters()
		if qc != qp || rc != rp || bc != bp {
			t.Fatalf("step %d: counters diverge (%d,%d,%d) vs (%d,%d,%d)", step, qp, rp, bp, qc, rc, bc)
		}
		if control.Cluster().Revision() != probed.Cluster().Revision() {
			t.Fatalf("step %d: revisions diverge", step)
		}
	}
}

// TestEvalDesignSnapshotConcurrent exercises concurrent what-if evaluation
// under the race detector: many goroutines evaluate different
// candidate designs at once while results must stay bit-identical to the
// quiet single-goroutine evaluations.
func TestEvalDesignSnapshotConcurrent(t *testing.T) {
	e, _ := newEngine(t)
	gs := batchGraphs(t)
	sp := engSpace()
	cands := whatIfDesigns(t)

	want := make([]BatchReport, len(cands))
	for i, mods := range cands {
		want[i] = e.EvalDesignSnapshot(buildState(t, sp, mods), toBatch(gs, 0), 1)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan string, rounds*len(cands))
	for r := 0; r < rounds; r++ {
		for i, mods := range cands {
			wg.Add(1)
			go func(i int, mods map[string]string) {
				defer wg.Done()
				rep := e.EvalDesignSnapshot(buildState(t, sp, mods), toBatch(gs, 0), 1)
				if rep.Seconds != want[i].Seconds {
					errc <- "concurrent what-if diverged from quiet evaluation"
				}
			}(i, mods)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}
