package exec

import (
	"errors"
	"testing"

	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
)

// TestRunBatchAbortThresholdDeterministic pins the abort contract: an abort
// raised from the in-order onResult callback (here: cumulative seconds
// crossing a threshold, the canary pattern) cuts the batch at the same
// position for every worker count, and the charged prefix is bit-identical
// to the sequential run. Discarded positions are zeroed and marked
// ErrBatchAborted; the clock and QueriesExecuted advance only by the prefix.
func TestRunBatchAbortThresholdDeterministic(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)

	// Pick a threshold that cuts somewhere in the middle of the batch.
	probe := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	full := probe.RunBatchQueriesAbort(toBatch(gs, 0), 1, nil, nil)
	threshold := full.Seconds / 3
	if threshold <= full.Reports[0].Seconds {
		t.Fatalf("threshold %v too small to pass the first query", threshold)
	}

	type outcome struct {
		completed int
		seconds   float64
		degraded  float64
		executed  int
		clock     float64
		order     []int
	}
	run := func(workers int) outcome {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		var abort BatchAbort
		var sum float64
		var order []int
		rep := e.RunBatchQueriesAbort(toBatch(gs, 0), workers, &abort, func(pos int, r RunReport, err error) {
			order = append(order, pos)
			sum += r.Seconds
			if sum > threshold {
				abort.Set()
			}
		})
		for i := 0; i < rep.Completed; i++ {
			if rep.Errs[i] != nil {
				t.Fatalf("workers=%d charged position %d has error %v", workers, i, rep.Errs[i])
			}
		}
		for i := rep.Completed; i < len(gs); i++ {
			if !errors.Is(rep.Errs[i], ErrBatchAborted) {
				t.Fatalf("workers=%d discarded position %d: err = %v, want ErrBatchAborted", workers, i, rep.Errs[i])
			}
			if rep.Reports[i] != (RunReport{}) {
				t.Fatalf("workers=%d discarded position %d has non-zero report %+v", workers, i, rep.Reports[i])
			}
		}
		executed, _, _ := e.Counters()
		return outcome{rep.Completed, rep.Seconds, rep.DegradedSeconds, executed, e.SimNow(), order}
	}

	base := run(1)
	if base.completed == 0 || base.completed >= len(gs) {
		t.Fatalf("threshold abort cut at %d of %d — want a mid-batch cut", base.completed, len(gs))
	}
	for i, pos := range base.order {
		if pos != i {
			t.Fatalf("onResult out of position order: got %v", base.order)
		}
	}
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		if got.completed != base.completed || got.seconds != base.seconds ||
			got.degraded != base.degraded || got.executed != base.executed || got.clock != base.clock {
			t.Fatalf("workers=%d outcome diverges: %+v vs sequential %+v", workers, got, base)
		}
		if len(got.order) != len(base.order) {
			t.Fatalf("workers=%d delivered %d results, sequential delivered %d", workers, len(got.order), len(base.order))
		}
		for i, pos := range got.order {
			if pos != i {
				t.Fatalf("workers=%d onResult out of position order: %v", workers, got.order)
			}
		}
	}
}

// TestRunBatchAbortUnderFaults repeats the seq-vs-par prefix identity with
// an armed injector: transient failures and degraded seconds inside the
// charged prefix must match across worker counts too.
func TestRunBatchAbortUnderFaults(t *testing.T) {
	cfg := faults.Config{
		Seed:                 11,
		TransientFailureRate: 0.2,
		Stragglers: []faults.Straggler{
			{Node: 1, Factor: 2.5, Window: faults.Window{Start: 0, End: 1e9}},
		},
	}
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)

	run := func(workers int) BatchReport {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.SetFaults(faults.MustNew(cfg))
		var abort BatchAbort
		n := 0
		return e.RunBatchQueriesAbort(toBatch(gs, 0), workers, &abort, func(pos int, r RunReport, err error) {
			n++
			if n >= len(gs)/2 {
				abort.Set()
			}
		})
	}

	base := run(1)
	if base.Completed != len(gs)/2 {
		t.Fatalf("count abort cut at %d, want %d", base.Completed, len(gs)/2)
	}
	for _, workers := range []int{2, 8, 0} {
		got := run(workers)
		if got.Completed != base.Completed || got.Seconds != base.Seconds ||
			got.Aborts != base.Aborts || got.DegradedSeconds != base.DegradedSeconds {
			t.Fatalf("workers=%d totals diverge: %+v vs %+v", workers, got, base)
		}
		for i := 0; i < base.Completed; i++ {
			if got.Reports[i] != base.Reports[i] {
				t.Fatalf("workers=%d position %d report diverges: %+v vs %+v",
					workers, i, got.Reports[i], base.Reports[i])
			}
		}
	}
}

// TestRunBatchAbortPreSet: an abort that fired before the call (external
// shutdown) charges nothing — no clock advance, no queries counted, every
// position marked ErrBatchAborted.
func TestRunBatchAbortPreSet(t *testing.T) {
	e := New(engSchema(), engData(30, 150, 300, 2), hardware.PostgresXLDisk(), Disk)
	gs := batchGraphs(t)
	var abort BatchAbort
	abort.Set()
	before := e.SimNow()
	for _, workers := range []int{1, 4} {
		rep := e.RunBatchQueriesAbort(toBatch(gs, 0), workers, &abort, nil)
		if rep.Completed != 0 || rep.Seconds != 0 {
			t.Fatalf("workers=%d pre-set abort charged %d queries, %v seconds", workers, rep.Completed, rep.Seconds)
		}
		for i := range gs {
			if !errors.Is(rep.Errs[i], ErrBatchAborted) {
				t.Fatalf("workers=%d position %d: err = %v", workers, i, rep.Errs[i])
			}
		}
	}
	if e.SimNow() != before {
		t.Fatal("pre-set abort advanced the simulated clock")
	}
	if executed, _, _ := e.Counters(); executed != 0 {
		t.Fatalf("pre-set abort counted %d queries", executed)
	}
}

// TestRunBatchNilAbortUnchanged: with a nil abort and no onResult hook
// every position is charged, Completed == len(qs).
func TestRunBatchNilAbortUnchanged(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)
	seq := New(engSchema(), data, hardware.PostgresXLDisk(), Disk).RunBatchQueriesAbort(toBatch(gs, 0), 1, nil, nil)
	par := New(engSchema(), data, hardware.PostgresXLDisk(), Disk).RunBatchQueriesAbort(toBatch(gs, 0), 0, nil, nil)
	if seq.Completed != len(gs) || par.Completed != len(gs) {
		t.Fatalf("Completed = %d/%d, want %d", seq.Completed, par.Completed, len(gs))
	}
	if seq.Seconds != par.Seconds {
		t.Fatalf("seq %v != par %v", seq.Seconds, par.Seconds)
	}
}
