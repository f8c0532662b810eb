package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
)

// goldenOfflineDigest is SHA-256 over SaveModel() plus the bit-encoded
// per-episode reward trace of the fixed-seed TPC-CH run below. It pins the
// exact floating-point result of every Q-network update: any change to the
// matmul, backward or optimizer kernels that alters a single bit of the
// model or of a reward (through a different greedy action) changes it.
const goldenOfflineDigest = "196bbc7a0373611c2c494f59a199e24dfae804272ebdf2e3a8232d99b1ad79e5"

// goldenRun trains the paper's 128-64 multi-head Q-network on TPC-CH (small
// scale, test profile, analytical cost model) from a fixed seed and returns
// the hex digest of the model bytes and reward trajectory.
func goldenRun(t *testing.T) string {
	t.Helper()
	b := benchmarks.TPCCH()
	sp := b.Space()
	data := b.Generate(0.05, 3)
	cm := costmodel.New(exec.BuildCatalog(b.Schema, data), hardware.SystemXMemory())
	hp := Test()
	hp.DQN.Hidden = []int{128, 64}
	hp.Episodes = 30
	a, err := New(sp, b.Workload, hp, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.TraceRewards = true
	if err := a.TrainOffline(offlineCost(cm, b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	if a.TrainUpdates == 0 {
		t.Fatal("golden run performed no gradient updates")
	}
	model, err := a.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(model)
	var buf [8]byte
	for _, r := range a.RewardTrace {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainOfflineGoldenDigest pins the trained model bit for bit across
// kernel changes and GOMAXPROCS: kernel rewrites may only skip products
// whose result is unused or exactly zero, never reorder a sum.
func TestTrainOfflineGoldenDigest(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if got := goldenRun(t); got != goldenOfflineDigest {
			t.Fatalf("GOMAXPROCS=%d: golden digest changed\n  got  %s\n  want %s", procs, got, goldenOfflineDigest)
		}
	}
}
