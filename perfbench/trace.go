package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"partadvisor/internal/dqn"
	"partadvisor/internal/env"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. Parent is the id of the enclosing span (-1 at the
// root); Req groups the spans of one served batch (0 elsewhere).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out once at exit.
// The training paths are single-threaded, so nesting follows a stack of
// open spans; concurrent callers (served batches) record finished spans
// with an explicit parent instead. A nil *tracer is the untraced run: every
// method is a no-op, and no decorator is installed.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	// phase prefixes the names of spans begun while it is set, so the
	// online phase of a run reports apart from its offline phase.
	phase string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: t.phase + name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// record adds a finished span from any goroutine.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: t.phase + name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls int
	Busy  float64   // summed duration, seconds
	Self  float64   // summed duration minus time covered by child spans, seconds
	Durs  []float64 // per-call durations, microseconds
}

// aggregate derives per-name statistics. A span's self time is its
// duration minus its children's; children of one parent never overlap
// except for served batches, whose parent is the phase span and whose
// self time is not used.
func (t *tracer) aggregate() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Calls++
		st.Busy += float64(d) / 1e9
		st.Self += float64(d-child[i]) / 1e9
		st.Durs = append(st.Durs, float64(d)/1e3)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedCost wraps the offline cost function handed to TrainOffline.
func tracedCost(t *tracer, cost env.CostFunc) env.CostFunc {
	if t == nil {
		return cost
	}
	return func(st *partition.State, freq workload.FreqVector) float64 {
		id := t.begin("costmodel.cost")
		defer t.end(id)
		return cost(st, freq)
	}
}

// tracedQ decorates a Q head with spans. It forwards every optional
// interface the wrapped head implements, so the agent takes the same code
// paths traced as untraced (GreedyBatch stays batched, full-state
// checkpoints keep working).
func tracedQ(t *tracer, q dqn.QFunc) dqn.QFunc {
	base := &qSpans{t: t, q: q}
	bv, batch := q.(dqn.BatchValuer)
	fs, full := q.(dqn.FullStater)
	switch {
	case batch && full:
		return &qBatchFull{qSpans: base, qBatch: qBatch{base, bv}, FullStater: fs}
	case batch:
		return &qBatchOnly{qSpans: base, qBatch: qBatch{base, bv}}
	case full:
		return &qFullOnly{qSpans: base, FullStater: fs}
	}
	return base
}

type qSpans struct {
	t *tracer
	q dqn.QFunc
}

func (d *qSpans) Values(state []float64, actions []int) []float64 {
	id := d.t.begin("dqn.values")
	defer d.t.end(id)
	return d.q.Values(state, actions)
}

func (d *qSpans) Train(batch []dqn.Transition, gamma float64) float64 {
	id := d.t.begin("dqn.train")
	defer d.t.end(id)
	return d.q.Train(batch, gamma)
}

func (d *qSpans) SoftUpdate(tau float64) {
	id := d.t.begin("dqn.soft_update")
	defer d.t.end(id)
	d.q.SoftUpdate(tau)
}

func (d *qSpans) Save() ([]byte, error)  { return d.q.Save() }
func (d *qSpans) Load(data []byte) error { return d.q.Load(data) }

type qBatch struct {
	s  *qSpans
	bv dqn.BatchValuer
}

func (b qBatch) ValuesBatch(states [][]float64, actions [][]int) [][]float64 {
	id := b.s.t.begin("dqn.values")
	defer b.s.t.end(id)
	return b.bv.ValuesBatch(states, actions)
}

type qBatchFull struct {
	*qSpans
	qBatch
	dqn.FullStater
}

type qBatchOnly struct {
	*qSpans
	qBatch
}

type qFullOnly struct {
	*qSpans
	dqn.FullStater
}

// spanPath names the span file of one traced run inside the build
// directory the launcher uses.
func spanPath(workloadName string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workloadName, seed))
}
