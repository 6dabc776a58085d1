package journal

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"clockwork"
)

// controlOps is every op kind, including the failures an admin plane
// can see: a duplicate name, an unknown catalogue model, an unknown
// worker ID, and draining a worker that is already drained (failing a
// draining worker succeeds).
func controlOps() []Op {
	return []Op{
		Register{Instance: "a", Zoo: "resnet50_v1b"},
		Register{Instance: "b", Zoo: "resnet18_v1", Copies: 3},
		Register{Instance: "a", Zoo: "resnet50_v1b"},
		Register{Instance: "c", Zoo: "no-such-zoo"},
		AddWorker{},
		DrainWorker{ID: 0},
		DrainWorker{ID: 0},
		FailWorker{ID: 1},
		FailWorker{ID: 0},
		FailWorker{ID: 99},
		DrainWorker{ID: 99},
		Rebalance{},
		Autoscale{Window: 16, AddWorkers: 2, Drain: -1, Rebalance: true},
		Autoscale{Window: 8, Drain: 4, Rebalance: true},
		Autoscale{Window: 8, Drain: 4},
		Autoscale{Window: 32, Drain: -1},
	}
}

func newSystem(t *testing.T, cfg clockwork.Config) *clockwork.System {
	t.Helper()
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

// applyAll applies ops in order and renders each op's effect and error.
func applyAll(sys *clockwork.System, rec *Recorder, ops []Op) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		eff, err := Apply(sys, rec, op)
		out[i] = fmt.Sprintf("%T %+v err=%v", op, eff, err)
	}
	return out
}

// requireSameState compares everything a control op can move.
func requireSameState(t *testing.T, stage string, a, b *clockwork.System) {
	t.Helper()
	if am, bm := fmt.Sprint(a.Models()), fmt.Sprint(b.Models()); am != bm {
		t.Fatalf("%s: models %s vs %s", stage, am, bm)
	}
	if a.Workers() != b.Workers() {
		t.Fatalf("%s: %d vs %d workers", stage, a.Workers(), b.Workers())
	}
	for id := 0; id < a.Workers(); id++ {
		as, aerr := a.WorkerStateOf(id)
		bs, berr := b.WorkerStateOf(id)
		if as != bs || (aerr == nil) != (berr == nil) {
			t.Fatalf("%s: worker %d is %v (%v) vs %v (%v)", stage, id, as, aerr, bs, berr)
		}
	}
	if ad, bd := a.DemandSnapshot(), b.DemandSnapshot(); !slices.Equal(ad, bd) {
		t.Fatalf("%s: placement groups' demand %v vs %v", stage, ad, bd)
	}
	if as, bs := a.Summary(), b.Summary(); as != bs {
		t.Fatalf("%s: summaries differ:\n %+v\n %+v", stage, as, bs)
	}
}

// TestApplyDirectAndRecordedAgree runs every op kind two ways on
// identical fresh systems: applied directly, and applied with a
// recorder, read back from disk, decoded and re-applied to a system
// built from the epoch's genesis — the path recovery and replay take.
// Both must report the same effects and errors and end in the same
// state, before and after the same traffic.
func TestApplyDirectAndRecordedAgree(t *testing.T) {
	cfg := clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2, Seed: 9}
	ops := controlOps()

	direct := newSystem(t, cfg)
	want := applyAll(direct, nil, ops)

	dir := t.TempDir()
	live := newSystem(t, cfg)
	rec, err := Create(dir, live, cfg, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got := applyAll(live, rec, ops); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("recording changed the effects:\n%s\nvs\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ep, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var decoded []Op
	for i := range ep.Records {
		if op := ep.Records[i].Op; op != nil {
			decoded = append(decoded, op)
		}
	}
	if len(decoded) != len(ops) {
		t.Fatalf("decoded %d ops, recorded %d", len(decoded), len(ops))
	}
	for i := range ops {
		if decoded[i] != ops[i] {
			t.Fatalf("op %d decoded as %#v, recorded %#v", i, decoded[i], ops[i])
		}
	}
	replayed, err := BuildSystem(ep.Genesis)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	if got := applyAll(replayed, nil, decoded); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("decoded ops had other effects:\n%s\nvs\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	requireSameState(t, "after the ops", direct, replayed)

	// The same traffic on both: a different worker set or placement
	// would show in the outcomes.
	for _, sys := range []*clockwork.System{direct, replayed} {
		for _, m := range sys.Models() {
			for k := 0; k < 4; k++ {
				if _, err := sys.SubmitRequest(clockwork.Request{Model: m, SLO: 100 * time.Millisecond}, nil); err != nil {
					t.Fatalf("SubmitRequest(%s): %v", m, err)
				}
			}
		}
		sys.RunFor(time.Second)
	}
	if direct.Summary().Succeeded == 0 {
		t.Fatalf("no request succeeded: %+v", direct.Summary())
	}
	requireSameState(t, "after traffic", direct, replayed)
}

// TestSyncLoopAndWriteFailure drives the default fsync policy's
// background syncer and the writer's failure latch. Appended ops become
// durable with no Flush or Close; once a write fails the journal
// reports it, the syncer stops, and Apply keeps applying ops — appends
// never block the serving path.
func TestSyncLoopAndWriteFailure(t *testing.T) {
	cfg := clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 1}
	sys := newSystem(t, cfg)
	r, err := Create(t.TempDir(), sys, cfg, Options{Fsync: FsyncInterval, FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r.Close()

	for _, op := range []Op{Register{Instance: "a", Zoo: "resnet50_v1b"}, AddWorker{}} {
		if _, err := Apply(sys, r, op); err != nil {
			t.Fatalf("Apply(%#v): %v", op, err)
		}
	}
	waitFor(t, "the syncer to fsync the appended ops", func() bool { return r.Status().UnsyncedBytes == 0 })
	if st := r.Status(); st.Records != 3 || st.Failed {
		t.Fatalf("status after sync: %+v", st)
	}

	// Close the segment under the writer: the next append fails to
	// write and latches the failure.
	r.w.mu.Lock()
	r.w.f.Close()
	r.w.mu.Unlock()
	if _, err := Apply(sys, r, AddWorker{}); err != nil {
		t.Fatalf("Apply after the journal broke: %v", err)
	}
	st := r.Status()
	if !st.Failed || st.Err == "" {
		t.Fatalf("a failed write did not latch: %+v", st)
	}
	if _, err := Apply(sys, r, AddWorker{}); err != nil {
		t.Fatalf("Apply on a failed journal: %v", err)
	}
	if sys.Workers() != 4 {
		t.Fatalf("ops on a failed journal were not applied: %d workers, want 4", sys.Workers())
	}
	if after := r.Status(); after.Records != st.Records || !after.Failed {
		t.Fatalf("a failed journal kept appending: %d records, then %d", st.Records, after.Records)
	}
	waitFor(t, "the syncer to stop after the failure", func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Recorder).syncLoop")
	})
}

// TestFsyncFailureLatches covers the writer's other failure: the bytes
// reach the kernel but the fsync fails. The failure latches exactly as
// a failed write does, naming the fsync, and Apply keeps applying ops
// without appending records. The ticker is an hour long so the test
// forces the one sync itself, with no background tick racing it.
func TestFsyncFailureLatches(t *testing.T) {
	cfg := clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 1}
	sys := newSystem(t, cfg)
	r, err := Create(t.TempDir(), sys, cfg, Options{Fsync: FsyncInterval, FsyncEvery: time.Hour})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer r.Close()

	if _, err := Apply(sys, r, AddWorker{}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	r.Flush()
	if st := r.Status(); st.UnsyncedBytes == 0 || st.Failed {
		t.Fatalf("status before the sync: %+v", st)
	}

	// Close the segment under the writer, so the flushed bytes can no
	// longer be synced, then sync.
	r.w.mu.Lock()
	r.w.f.Close()
	r.w.mu.Unlock()
	if err := r.w.sync(); err == nil {
		t.Fatal("sync of a closed segment succeeded")
	}
	st := r.Status()
	if !st.Failed || !strings.Contains(st.Err, "fsync") {
		t.Fatalf("a failed fsync did not latch: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if _, err := Apply(sys, r, AddWorker{}); err != nil {
			t.Fatalf("Apply on a failed journal: %v", err)
		}
	}
	if sys.Workers() != 4 {
		t.Fatalf("ops on a failed journal were not applied: %d workers, want 4", sys.Workers())
	}
	if after := r.Status(); after.Records != st.Records || !after.Failed {
		t.Fatalf("a failed journal kept appending: %d records, then %d", st.Records, after.Records)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRebalanceRecordsApplyAsNothing: journals written while the
// control plane had a rebalancer hold type-8 Rebalance records and
// Autoscale records with the rebalance bit set. Both still decode from
// their pinned bytes, and both replay as what the same epoch without
// the rebalance does: a Rebalance as nothing, an Autoscale as its
// window and worker actions alone.
func TestRebalanceRecordsApplyAsNothing(t *testing.T) {
	for i, want := range map[int]Op{
		8:  Rebalance{},
		10: Autoscale{Window: 48, AddWorkers: 1, Drain: -1, Rebalance: true},
	} {
		payload, err := hex.DecodeString(sampleRecordHex[i])
		if err != nil {
			t.Fatal(err)
		}
		var r Record
		if err := decodeRecord(payload, &r); err != nil {
			t.Fatalf("pinned row %d: decode: %v", i, err)
		}
		if r.Op != want {
			t.Fatalf("pinned row %d decodes to %#v, want %#v", i, r.Op, want)
		}
	}

	// One epoch with the rebalance records, one without: both replay,
	// to the same end, and leave systems that serve the same traffic
	// identically.
	cfg := clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2, Seed: 3}
	epoch := func(rebalance bool) *EpochData {
		ops := []Op{
			Register{Instance: "m", Zoo: "resnet50_v1b", Copies: 6},
			Autoscale{Window: 16, AddWorkers: 1, Drain: -1, Rebalance: rebalance},
			Autoscale{Window: 8, Drain: 0, Rebalance: rebalance},
		}
		if rebalance {
			ops = slices.Insert(ops, 1, Op(Rebalance{}))
		}
		st := &State{Config: cfg}
		e := &EpochData{Genesis: st, Records: []Record{{Type: recGenesis, State: st}}}
		for i, op := range ops {
			e.Records = append(e.Records, Record{Type: op.recType(), Seq: uint64(i + 1), VT: time.Millisecond, Op: op})
		}
		return e
	}
	var systems []*clockwork.System
	for _, rebalance := range []bool{true, false} {
		e := epoch(rebalance)
		res, err := ReplayEpoch(e)
		if err != nil {
			t.Fatalf("rebalance=%v: ReplayEpoch: %v", rebalance, err)
		}
		if res.FinalStep != 0 || res.FinalVT != time.Millisecond {
			t.Fatalf("rebalance=%v: replay ended at step %d, %v", rebalance, res.FinalStep, res.FinalVT)
		}
		sys, err := BuildSystem(e.Genesis)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range e.Records[1:] {
			if _, err := Apply(sys, nil, r.Op); err != nil {
				t.Fatalf("rebalance=%v: Apply(%#v): %v", rebalance, r.Op, err)
			}
		}
		for k := 0; k < 48; k++ {
			if _, err := sys.SubmitRequest(clockwork.Request{Model: fmt.Sprintf("m#%d", k%6), SLO: 100 * time.Millisecond}, nil); err != nil {
				t.Fatal(err)
			}
			sys.RunFor(time.Millisecond)
		}
		sys.RunFor(time.Second)
		systems = append(systems, sys)
	}
	requireSameState(t, "after the ops and traffic", systems[0], systems[1])
	if systems[0].Summary().Succeeded == 0 {
		t.Fatalf("the traffic served nothing: %+v", systems[0].Summary())
	}
}
