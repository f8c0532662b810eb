package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"partadvisor/internal/partition"
)

// EvalDesignSnapshot executes a batch of queries against a HYPOTHETICAL
// partitioning without deploying it: the candidate design's shard sets are
// materialized through the cluster's LRU shard cache (cluster.
// MaterializeDesign — a design later deployed is a pointer swap) and
// overlaid on an immutable copy of the current layout snapshot. The
// deployed designs, shard pointers, layout revision, accounting counters,
// simulated clock and fault draws are all untouched — concurrent Deploys,
// batches and monitoring observe nothing.
//
// The engine mutex is held only to build the overlay and to check worker
// scratches in/out of the pool; the queries themselves run lock-free
// against the frozen overlay with per-worker scratch arenas, so concurrent
// what-if evaluations proceed in parallel with each other and with
// deployed-state operations.
//
// Determinism contract: the evaluation is a pure function of (layout
// revision, optimizer catalog, candidate design, queries) — faults are not
// consulted (a what-if asks for the design's intrinsic cost, not for luck
// with the current fault window) and the simulated clock is pinned to 0.
// Totals are reduced in position order, so the report is bit-identical at
// every worker count, and equals deploying the design and measuring the
// same batch on a fault-free engine.
func (e *Engine) EvalDesignSnapshot(st *partition.State, qs []BatchQuery, workers int) BatchReport {
	rep := BatchReport{
		Reports: make([]RunReport, len(qs)),
		Errs:    make([]error, len(qs)),
	}
	if len(qs) == 0 {
		return rep
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}

	e.mu.Lock()
	base := e.layoutLocked()
	lay := base
	for _, name := range e.Schema.TableNames() {
		want := designOf(st, name)
		t := base.table(name)
		if t.design.Equal(want) {
			continue
		}
		if lay == base {
			// First differing table: fork the snapshot (a map of pointers —
			// no data is copied) so base stays untouched for other readers.
			lay = &layoutSnap{
				rev:    base.rev,
				tables: make(map[string]*tableSnap, len(base.tables)),
				estCat: base.estCat,
				schema: base.schema,
				hw:     base.hw,
			}
			for n, ts := range base.tables {
				lay.tables[n] = ts
			}
		}
		shards, replica := e.cluster.MaterializeDesign(name, want)
		lay.tables[name] = &tableSnap{
			shards:   shards,
			replica:  replica,
			design:   want,
			rowWidth: t.rowWidth,
			rows:     t.rows,
			bytes:    t.bytes,
		}
	}
	scratches := e.grabScratchesLocked(workers)
	e.mu.Unlock()

	fc := newFaultCtx(nil, e.HW.Nodes, 0)
	runOne := func(s *execScratch, i int) {
		x := s.prepare(lay, qs[i].Graph, qs[i].Limit, 0, fc)
		sec, timedOut := x.run()
		rep.Reports[i] = RunReport{Seconds: sec, Aborted: timedOut}
		rep.Errs[i] = x.err
		s.release()
	}
	if workers <= 1 {
		for i := range qs {
			runOne(scratches[0], i)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(s *execScratch) {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(qs) {
						return
					}
					runOne(s, i)
				}
			}(scratches[w])
		}
		wg.Wait()
	}

	e.mu.Lock()
	e.putScratchesLocked(scratches)
	e.mu.Unlock()

	rep.Completed = len(qs)
	for i := range rep.Reports {
		rep.Seconds += rep.Reports[i].Seconds
		if rep.Reports[i].Aborted {
			rep.Aborts++
		}
	}
	return rep
}
