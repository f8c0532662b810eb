package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"partadvisor/internal/sqlparse"
)

// ErrBatchAborted marks a batch position that was never charged because the
// batch stopped early: either the caller's abort signal fired before the
// position was dispatched, or its speculative result was discarded to keep
// the charged prefix deterministic (see RunBatchQueriesAbort).
var ErrBatchAborted = errors.New("exec: batch aborted before this query")

// BatchAbort is a caller-owned early-stop signal for a running batch.
// Deterministic policies (the guard's canary threshold) set it from the
// batch's in-order result callback; external events (a shutdown request)
// may Set it from any goroutine at any time.
type BatchAbort struct{ flag atomic.Bool }

// Set requests the batch to stop dispatching new queries.
func (a *BatchAbort) Set() { a.flag.Store(true) }

// Aborted reports whether the abort has fired.
func (a *BatchAbort) Aborted() bool { return a.flag.Load() }

// BatchQuery pairs one query with its §4.2 time limit (0 = none).
type BatchQuery struct {
	Graph *sqlparse.Graph
	Limit float64
}

// BatchReport aggregates one RunBatch execution. Per-query results are
// indexed by the query's position in the submitted batch, and the scalar
// totals are reduced in position order, so the report is bit-identical
// regardless of worker count or completion order.
type BatchReport struct {
	// Reports holds each query's outcome at its batch position. Positions
	// at or past Completed are zero (never charged).
	Reports []RunReport
	// Errs holds each query's injected failure (nil on success);
	// ErrBatchAborted for positions the batch never charged.
	Errs []error
	// Completed is the length of the charged position prefix: positions
	// [0, Completed) executed and are summed into the totals. It equals
	// len(Reports) unless an abort fired.
	Completed int
	// Seconds is Σ Reports[i].Seconds in position order over the charged
	// prefix.
	Seconds float64
	// Aborts counts §4.2 timeout aborts.
	Aborts int
	// DegradedSeconds is Σ Reports[i].DegradedSeconds in position order.
	DegradedSeconds float64
}

// RunBatch executes a set of queries against the current deployment with a
// uniform time limit (0 = none), fanning them across a worker pool. See
// RunBatchQueriesAbort for the execution and determinism contract.
func (e *Engine) RunBatch(gs []*sqlparse.Graph, limit float64) BatchReport {
	return e.RunBatchCtx(context.Background(), gs, limit)
}

// RunBatchCtx is RunBatch under a context: cancellation (or an expired
// deadline) stops the batch through the frozen-cursor abort, so the report
// charges exactly the delivered prefix — see RunBatchQueriesAbortCtx.
func (e *Engine) RunBatchCtx(ctx context.Context, gs []*sqlparse.Graph, limit float64) BatchReport {
	qs := make([]BatchQuery, len(gs))
	for i, g := range gs {
		qs[i] = BatchQuery{Graph: g, Limit: limit}
	}
	return e.RunBatchQueriesAbortCtx(ctx, qs, 0, nil, nil)
}

// RunBatchQueriesAbort executes a batch of queries concurrently (workers
// <= 0 uses GOMAXPROCS; 1 runs inline) with an optional early-abort hook,
// and returns per-position reports plus position-ordered totals. With a nil
// abort and nil onResult every position is charged.
//
// Execution contract: the batch takes an immutable snapshot of the
// deployed layout (shard sets, designs, optimizer catalog, hardware) once
// at batch start; workers execute against the snapshot entirely lock-free,
// each with its own scratch arena and recycled executor buffers checked
// out of the engine pool. The engine mutex is still held for the whole
// batch — it serializes *mutations* (Deploy/BulkLoad/Analyze and other
// engines sharing the injector) against the batch as a whole, while
// read-only accessors are served from the previously published view. All
// queries in a batch are submitted at the same simulated instant: every
// executor sees the fault state sampled at batch start, transient-failure
// verdicts are derived from (schedule seed, batch number, query position)
// rather than from the sequential draw stream, and per-query degraded
// overlap is measured from batch start. The simulated clock advances by
// the position-ordered sum of the charged prefix at the end, exactly as if
// the queries had been measured back to back on an idle cluster.
//
// Abort contract: onResult (when non-nil) is invoked in strict position
// order as the contiguous completed prefix extends; it runs under the
// engine mutex and must not call back into the engine. Once abort fires —
// from inside onResult or externally — no new positions are dispatched, no
// further results are delivered, and the report charges exactly the
// positions delivered so far (Completed). Parallel workers may have
// speculatively executed later positions; their results are discarded
// (zeroed, Errs = ErrBatchAborted), which keeps the charged prefix a pure
// function of position-ordered results. An abort raised only from onResult
// therefore cuts the batch at the same position for every worker count:
// sequential and parallel runs charge bit-identical prefixes.
//
// Determinism contract: with no injector armed and no abort, totals are
// bit-identical to running the queries one by one through Execute and
// summing in position order. With an injector armed, results are a pure
// function of (deployment, schedule, clock, batch number, positions) —
// identical across runs and across any workers/GOMAXPROCS values.
func (e *Engine) RunBatchQueriesAbort(qs []BatchQuery, workers int, abort *BatchAbort, onResult func(pos int, rep RunReport, err error)) BatchReport {
	return e.runBatchQueriesAbort(qs, workers, abort, onResult)
}

// RunBatchQueriesAbortCtx is RunBatchQueriesAbort with context
// cancellation wired into the abort signal: when ctx is cancelled (or its
// deadline passes) — before the batch starts or at any point during it —
// the batch stops dispatching via the same frozen-cursor abort the guard's
// canary uses, so the charged prefix keeps bit-identical accounting (the
// report's totals are the position-ordered sums of exactly the positions
// delivered before the cut; later positions are zeroed with
// ErrBatchAborted and the simulated clock advances only by the charged
// prefix). A ctx that is already done yields Completed == 0 and leaves the
// clock untouched. Cancellation is an external abort: the cut position
// depends on timing, but the accounting of whatever prefix was charged is
// exact.
func (e *Engine) RunBatchQueriesAbortCtx(ctx context.Context, qs []BatchQuery, workers int, abort *BatchAbort, onResult func(pos int, rep RunReport, err error)) BatchReport {
	if ctx != nil && ctx.Done() != nil {
		if abort == nil {
			abort = &BatchAbort{}
		}
		if ctx.Err() != nil {
			// Already done: abort synchronously so nothing is dispatched
			// (AfterFunc alone fires in its own goroutine and could race the
			// first dispatches).
			abort.Set()
		} else {
			stop := context.AfterFunc(ctx, abort.Set)
			defer stop()
		}
	}
	return e.runBatchQueriesAbort(qs, workers, abort, onResult)
}

func (e *Engine) runBatchQueriesAbort(qs []BatchQuery, workers int, abort *BatchAbort, onResult func(pos int, rep RunReport, err error)) BatchReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	rep := BatchReport{
		Reports: make([]RunReport, len(qs)),
		Errs:    make([]error, len(qs)),
	}
	if len(qs) == 0 {
		return rep
	}
	e.healLocked()
	batch := e.batchSeq
	e.batchSeq++
	start := e.simNow
	fc := e.faultCtx()
	// Everything a worker reads below is frozen for the batch: the layout
	// snapshot, the fault context, the injector pointer (its positional
	// verdict and window methods are pure), and the overhead constant.
	// Workers touch no mutable engine state at all.
	lay := e.layoutLocked()
	inj := e.faults
	overhead := e.HW.QueryOverheadSec

	aborted := func() bool { return abort != nil && abort.Aborted() }

	// Per-position heat captures: each worker copies its scratch's heat
	// entries out by position, and only the charged prefix is merged below —
	// speculatively executed positions past an abort contribute nothing, so
	// the cumulative heat matrix stays a pure function of the charged
	// prefix (bit-identical at every worker count).
	heats := make([][]heatEntry, len(qs))

	runOne := func(s *execScratch, i int) {
		if inj != nil && inj.TransientFailureAt(batch, i) {
			// The query dies before doing real work (worker restart,
			// connection reset): only the fixed per-query overhead is lost.
			rep.Reports[i] = RunReport{
				Seconds:         overhead,
				DegradedSeconds: inj.DegradedOverlap(start, start+overhead),
			}
			rep.Errs[i] = &TransientError{At: start}
			return
		}
		x := s.prepare(lay, qs[i].Graph, qs[i].Limit, start, fc)
		sec, timedOut := x.run()
		r := RunReport{Seconds: sec, Aborted: timedOut}
		if inj != nil {
			r.DegradedSeconds = inj.DegradedOverlap(start, start+sec)
		}
		rep.Reports[i] = r
		rep.Errs[i] = x.err
		if len(x.heat) > 0 {
			heats[i] = append([]heatEntry(nil), x.heat...)
		}
		s.release() // rewind the arena; the report holds only scalars
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	completed := 0
	if workers <= 1 {
		s := e.grabScratchLocked()
		for i := range qs {
			if aborted() {
				break
			}
			runOne(s, i)
			completed = i + 1
			if onResult != nil {
				onResult(i, rep.Reports[i], rep.Errs[i])
			}
		}
		e.putScratchLocked(s)
	} else {
		// Delivery state: results are handed to onResult in strict position
		// order; frozen stops delivery (and the Completed count) at the
		// moment the abort is observed, so speculatively executed later
		// positions never count.
		var dmu sync.Mutex
		done := make([]bool, len(qs))
		cursor := 0
		frozen := false
		deliver := func(i int) {
			dmu.Lock()
			defer dmu.Unlock()
			done[i] = true
			for !frozen && cursor < len(qs) && done[cursor] {
				if onResult != nil {
					onResult(cursor, rep.Reports[cursor], rep.Errs[cursor])
				}
				cursor++
				if aborted() {
					frozen = true
				}
			}
		}
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		scratches := e.grabScratchesLocked(workers)
		for w := 0; w < workers; w++ {
			go func(s *execScratch) {
				defer wg.Done()
				for {
					if aborted() {
						return
					}
					i := int(next.Add(1))
					if i >= len(qs) {
						return
					}
					runOne(s, i)
					deliver(i)
				}
			}(scratches[w])
		}
		wg.Wait()
		e.putScratchesLocked(scratches)
		completed = cursor
	}

	rep.Completed = completed
	for i := completed; i < len(qs); i++ {
		rep.Reports[i] = RunReport{}
		rep.Errs[i] = ErrBatchAborted
	}
	e.QueriesExecuted += completed
	for i := 0; i < completed; i++ {
		rep.Seconds += rep.Reports[i].Seconds
		if rep.Reports[i].Aborted {
			rep.Aborts++
		}
		rep.DegradedSeconds += rep.Reports[i].DegradedSeconds
		e.mergeHeat(heats[i])
	}
	e.simNow += rep.Seconds
	return rep
}
