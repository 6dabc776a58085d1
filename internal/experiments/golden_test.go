package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"clockwork"
	"clockwork/internal/core"
	"clockwork/internal/rng"
	"clockwork/workload"
)

// Golden output hashes for fig2b/fig5/fig8 at fixed test-scale
// configs, captured on the pre-shard control plane (PR 2's single
// centralized controller). A Shards=1 system must reproduce these
// byte-for-byte: the sharded control plane degenerates to exactly the
// old code path when unsharded (one controller, IDStart 0 / IDStride
// 1, no rebalancer armed), and these hashes prove it — any divergence
// in scheduling order, ID assignment, RNG stream consumption or
// output formatting trips them.
//
// Regenerating (only after an INTENDED behaviour change — never to
// paper over an unexplained diff): print the three String() outputs
// below, hash with sha256, and update the constants, noting the cause
// in the commit message.
const (
	goldenFig2b = "4500b0ff59d7f99ce7f1894789fc7b0a1453a959107113520f1b331df087afa6"
	goldenFig5  = "496d464d0454315790a9082975b4ae92822636cf1839d59328465d3c066eb032"
	goldenFig8  = "7df88821a6093fb491f8c418b1a12d4f9a580566cd39203e255c6fcb2d878fd9"
)

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// Golden hashes for the experiments that had scaled assertions but no
// pin (PR 19): fig6 is the cold-start / swap regime, fig7 and its
// isolation variant the mixed-SLO regime, fig9 and sloscale the MAF
// trace at two more scales. They are asserted inside the scaled tests
// of experiments_test.go on the results those tests already produce, so
// pinning them costs no second run. Values captured on the commit before
// the LOAD gate and slice-backed residency went in.
const (
	goldenFig6          = "80d8ac7824e9f8cc6d258d34e45894a8e66fc5c912d81ff51522df3fee42a92c"
	goldenFig7          = "ee0dfac60fed4f7cea31ee594b9280f1896b5aeafbe486aec6d0c0b1c86a540b"
	goldenFig7IsoBase   = "2ebd4d138b2e13f72e2abefc027ac1cf01c7a2feeed47f94b3a3feafc7337031"
	goldenFig7IsoShared = "e0e720341536c6ba82cf187cb72a52cc19ee1ebd3804cd135f9b6713bd350306"
	goldenFig9          = "5ea93a5d548a2c0cd41619570617e6fc83a30ac40bc3ddf581dc518c4684a73d"
	goldenSLOScale      = "69e9ba015882c56f203b2894b143bf6e1d9829025cb47234f53749d2f6932156"
)

// checkGolden fails t when out does not hash to want.
func checkGolden(t *testing.T, what, want, out string) {
	t.Helper()
	if got := sha(out); got != want {
		t.Fatalf("%s output diverged from its golden\n got %s\nwant %s\noutput:\n%s", what, got, want, out)
	}
}

func TestGoldenFig2bPreShardBitIdentical(t *testing.T) {
	t.Parallel()
	out := RunFig2b(Fig2bConfig{Duration: 10 * time.Second, Seed: 1}).String()
	if got := sha(out); got != goldenFig2b {
		t.Fatalf("fig2b output diverged from the pre-shard golden\n got %s\nwant %s\noutput:\n%s", got, goldenFig2b, out)
	}
}

func TestGoldenFig5PreShardBitIdentical(t *testing.T) {
	t.Parallel()
	out := RunFig5(Fig5Config{
		SLOs:     []time.Duration{25 * time.Millisecond, 500 * time.Millisecond},
		Duration: 6 * time.Second,
		Warmup:   2 * time.Second,
		Seed:     1,
	}).String()
	if got := sha(out); got != goldenFig5 {
		t.Fatalf("fig5 output diverged from the pre-shard golden\n got %s\nwant %s\noutput:\n%s", got, goldenFig5, out)
	}
}

func TestGoldenFig8PreShardBitIdentical(t *testing.T) {
	t.Parallel()
	out := RunFig8(Fig8Config{
		Workers: 1, GPUsPerWorker: 2,
		Copies: 2, Functions: 400, Minutes: 6, Seed: 1,
	}).String()
	if got := sha(out); got != goldenFig8 {
		t.Fatalf("fig8 output diverged from the pre-shard golden\n got %s\nwant %s\noutput:\n%s", got, goldenFig8, out)
	}
}

// goldenScale pins the PR-3 control-plane scale scenario at a small
// fixed config: shard-count sweep over an identical replayed workload.
// Sharding the control plane is pure partitioning — any drift in shard
// routing, ID assignment or rebalance cadence shows up here first.
const goldenScale = "5ce88e55f70e91b2c16abfd46ffb441250681fd7c59a40bc0b87a52ec0b38c39"

func TestGoldenScaleShardSweepBitIdentical(t *testing.T) {
	t.Parallel()
	out := RunScale(ScaleConfig{
		Shards:            []int{1, 2, 4},
		Models:            128,
		Requests:          8_000,
		Rate:              3_000,
		Workers:           8,
		GPUsPerWorker:     2,
		Seed:              7,
		RebalanceInterval: 500 * time.Millisecond,
	}).String()
	if got := sha(out); got != goldenScale {
		t.Fatalf("scale output diverged from the golden\n got %s\nwant %s\noutput:\n%s", got, goldenScale, out)
	}
}

// goldenColdTail pins the regime no other golden enters: many GPUs,
// every hot model replicated on several of them, and a cold tail
// cycling through page caches too small to hold it — the state in which
// LOAD selection is asked, per GPU and per event, whether anything is
// worth loading and the answer is almost always no. A scaled-down
// bench/sim.go `sim_coldtail`: the hash covers (id, success, latency)
// of every request in completion order, so a LOAD decision that moved
// by one model or one instant shows up.
const goldenColdTail = "d1d2b8c9fd491510615878010ef48f4597702236ce53fb78e666f8a8633bbe44"

type coldTailSink struct {
	h hash.Hash
	n int
}

func (s *coldTailSink) OnResult(r clockwork.Result) {
	var buf [17]byte
	binary.LittleEndian.PutUint64(buf[0:], r.RequestID)
	binary.LittleEndian.PutUint64(buf[8:], uint64(r.Latency))
	if r.Success {
		buf[16] = 1
	}
	s.h.Write(buf[:])
	s.n++
}

func TestGoldenColdTailBitIdentical(t *testing.T) {
	t.Parallel()
	const (
		models = 1024
		slo    = 100 * time.Millisecond
		seed   = 1
	)
	sys, err := clockwork.New(clockwork.Config{
		Workers: 8, GPUsPerWorker: 2, Seed: seed,
		ZeroLengthInputs: true,
		// Large enough that the hot head replicates across GPUs, small
		// enough that the hi phase evicts as well as loads.
		PageCacheBytes: 12 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := registerScaleModels(sys, models)
	pickModel := zipfPicker(models, 0.9, names)
	pick := rng.NewSource(seed).Stream("coldtail.models")
	sink := &coldTailSink{h: sha256.New()}

	// Open-loop Poisson in two phases: 1 s at 1,500 r/s, 2 s at 4,500.
	phases := []struct {
		dur  time.Duration
		rate float64
	}{{time.Second, 1500}, {2 * time.Second, 4500}}
	sent := 0
	var base time.Duration
	var before core.Stats
	for p, ph := range phases {
		if p == 1 {
			before = core.ClusterOf(sys).Stats()
		}
		gaps := workload.NewPoissonArrivals(seed*2+uint64(p), ph.rate)
		for at := gaps.Next(); at < ph.dur; at += gaps.Next() {
			sys.RunUntil(base + at)
			if err := sys.SubmitRequestSink(0, clockwork.Request{Model: pickModel(pick), SLO: slo}, sink); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		base += ph.dur
		sys.RunUntil(base)
	}
	after := core.ClusterOf(sys).Stats()
	sys.RunUntil(base + time.Second) // drain: SLO ≪ 1 s
	if sink.n != sent {
		t.Fatalf("sent %d, completed %d", sent, sink.n)
	}
	loads, unloads := after.ActionsLoad-before.ActionsLoad, after.ActionsUnload-before.ActionsUnload
	if loads == 0 || unloads == 0 {
		t.Fatalf("hi phase issued %d LOADs and %d UNLOADs; the golden must cover both", loads, unloads)
	}
	t.Logf("sent %d, hi-phase LOADs %d UNLOADs %d", sent, loads, unloads)
	if got := fmt.Sprintf("%x", sink.h.Sum(nil)); got != goldenColdTail {
		t.Fatalf("cold-tail run diverged from its golden\n got %s\nwant %s", got, goldenColdTail)
	}
}
