// Command perfbench is the repository benchmark: train-to-suggest
// wall-clock and layout quality of the learned partitioning advisor, and
// latency and throughput of the multi-tenant advisor service, on seeded
// workloads driven from one process through the public APIs of core,
// costmodel, dqn, exec, cluster and serve.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload offline-tpcds|online-tpcch|serve-mixed|all \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
// measured with no decorator installed. With --trace 1 it first runs the
// workload untraced, then again with spans around every layer call, checks
// that both runs produced the same outputs, and reports the per-layer
// metrics derived from the spans. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run reports.
type outcome struct {
	e2e       metrics // end-to-end metrics (untraced)
	layers    metrics // per-layer metrics (traced run only)
	attempted int
	failed    int
	// mismatch lists every failed output check; any entry fails the run.
	mismatch []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.mismatch = append(o.mismatch, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(seed int64, seconds float64, trace bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"offline-tpcds": runOfflineTPCDS,
	"online-tpcch":  runOnlineTPCCH,
	"serve-mixed":   runServeMixed,
}

var workloadOrder = []string{"offline-tpcds", "online-tpcch", "serve-mixed"}

func main() {
	var (
		name    = flag.String("workload", "", "workload: offline-tpcds, online-tpcch, serve-mixed or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement time per run")
		trace   = flag.Int("trace", 0, "1 = run traced and report per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}

	meta := map[string]any{
		"host":       hostname(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   revision(),
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
	}
	final := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, n := range names {
		o, err := workloads[n](*seed, *seconds, *trace == 1)
		if err == nil && *trace == 1 && len(names) > 1 {
			// The ledger of --workload all pairs each layer table with an
			// end-to-end row, which only an untraced run may give.
			var u *outcome
			if u, err = workloads[n](*seed, *seconds, false); err == nil {
				o.e2e = u.e2e
				o.mismatch = append(o.mismatch, u.mismatch...)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		report := map[string]any{"_meta": meta, "workload": n, "end_to_end": o.e2e, "per_layer": o.layers,
			"attempted": o.attempted, "failed": o.failed, "mismatch": o.mismatch}
		rep, _ := json.Marshal(report)
		fmt.Println(string(rep))
		printTable(n, o)
		for _, m := range o.mismatch {
			fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %s\n", n, m)
		}
		final.Correct = final.Correct && len(o.mismatch) == 0
		final.Attempted += o.attempted
		final.Failed += o.failed
		out, err := spec.pick(o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		for k, v := range out {
			if len(names) > 1 {
				k = n + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// printTable prints the end-to-end row and, for a traced run, the layer
// table: one ledger entry per workload.
func printTable(name string, o *outcome) {
	if len(o.e2e) > 0 {
		fmt.Printf("== %s: end to end\n", name)
		printMetrics(o.e2e)
	}
	if len(o.layers) > 0 {
		fmt.Printf("== %s: per layer (traced)\n", name)
		printMetrics(o.layers)
	}
}

func printMetrics(m metrics) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// revision is the git revision of the benchmarked tree: from the build's
// VCS stamp, else from git, else "unknown" (a checkout without .git).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchSpec is the part of BENCHMARK.json that names the metrics a run
// prints: every end-to-end metric untraced, every per-layer one traced.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// pick returns the metrics the spec lists for the run, in the spec's
// units. A workload reports every end-to-end metric; a per-layer metric of
// a layer the workload does not exercise reads 0.
func (s *benchSpec) pick(o *outcome, traced bool) (metrics, error) {
	list, got := s.EndToEnd, o.e2e
	if traced {
		list, got = s.PerLayer, o.layers
	}
	listed := make(map[string]bool, len(list))
	out := metrics{}
	for _, sm := range list {
		listed[sm.Name] = true
		m, ok := got[sm.Name]
		switch {
		case !ok && !traced:
			return nil, fmt.Errorf("end-to-end metric %s not measured", sm.Name)
		case !ok:
			m = metric{Unit: sm.Unit}
		case m.Unit != sm.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, spec says %s", sm.Name, m.Unit, sm.Unit)
		}
		out[sm.Name] = m
	}
	for name := range got {
		if !listed[name] {
			return nil, fmt.Errorf("metric %s is not in the spec", name)
		}
	}
	return out, nil
}

// repeatCheck compares the deterministic digest of a run with the one an
// earlier run of the same binary, workload and seed left in the build
// directory, and records it when there is none. It returns a description
// of the difference, or "" when the digests agree.
func repeatCheck(workloadName string, seed int64, digest string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(".bench_build", "digests", fmt.Sprintf("%x-%s-seed%d.txt", sum[:8], workloadName, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			return fmt.Sprintf("seed %d does not repeat across runs:\n  before %s\n  now    %s", seed, prev, digest), nil
		}
		return "", nil
	case !errors.Is(err, fs.ErrNotExist):
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return "", os.WriteFile(path, []byte(digest), 0o644)
}
