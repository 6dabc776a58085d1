// Package journal_test exercises the durable control plane end to end:
// a live serve.Server records a journal, then the journal is read back
// for deterministic replay (hash match) and crash recovery (state
// rebuild). It lives in an external test package so it can import
// serve, which itself imports journal.
package journal_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clockwork"
	"clockwork/journal"
	"clockwork/serve"
	"clockwork/trace"
)

// jserver bundles a journaled live server and its front doors.
type jserver struct {
	dir    string
	sys    *clockwork.System
	rec    *journal.Recorder
	srv    *serve.Server
	ts     *httptest.Server
	client *serve.Client
}

// startJournaled boots a fresh system recording to dir behind an
// httptest listener. Fsync defaults to never: these tests exercise
// record/replay semantics, not storage durability.
func startJournaled(t *testing.T, dir string, cfg clockwork.Config, jopts journal.Options) *jserver {
	t.Helper()
	if jopts.Fsync == journal.FsyncInterval && jopts.FsyncEvery == 0 {
		jopts.Fsync = journal.FsyncNever
	}
	if jopts.Speed == 0 {
		jopts.Speed = 2000
	}
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec, err := journal.Create(dir, sys, cfg, jopts)
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	srv := serve.New(sys, serve.Options{Speed: jopts.Speed, MaxInFlight: jopts.MaxInFlight, Journal: rec})
	ts := httptest.NewServer(srv.Handler())
	js := &jserver{dir: dir, sys: sys, rec: rec, srv: srv, ts: ts, client: serve.NewClient(ts.URL, nil)}
	t.Cleanup(func() { js.shutdown(t) })
	return js
}

// shutdown closes the listener and drains; idempotent, and it closes
// the recorder (the server owns its lifecycle).
func (js *jserver) shutdown(t *testing.T) {
	t.Helper()
	js.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := js.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// postSnapshot drives POST /v1/admin/snapshot and decodes the reply.
func (js *jserver) postSnapshot(t *testing.T) journal.SnapshotInfo {
	t.Helper()
	resp, err := http.Post(js.ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatalf("POST snapshot: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST snapshot: status %d: %s", resp.StatusCode, body)
	}
	var sr journal.SnapshotInfo
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("snapshot response: %v", err)
	}
	return sr
}

// driveMixedTraffic submits n inferences (some concurrent), a control-
// plane mutation per kind, and a few read scrapes — the full record
// vocabulary.
func driveMixedTraffic(t *testing.T, js *jserver, n int) {
	t.Helper()
	ctx := context.Background()
	if err := js.client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil && !errors.Is(err, clockwork.ErrDuplicateModel) {
		t.Fatalf("RegisterModel: %v", err)
	}
	if _, err := js.client.RegisterCopies(ctx, "dense", "densenet161", 2); err != nil && !errors.Is(err, clockwork.ErrDuplicateModel) {
		t.Fatalf("RegisterCopies: %v", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := "resnet"
			if i%3 == 0 {
				model = "dense#" + fmt.Sprint(i%2)
			}
			if _, err := js.client.Infer(ctx, clockwork.Request{
				Model: model, SLO: 500 * time.Millisecond, Tenant: "t" + fmt.Sprint(i%4),
			}); err != nil {
				t.Errorf("Infer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// A submission that fails at intake (unknown model) records an
	// infer with no ack — replay must tolerate it.
	if _, err := js.client.Infer(ctx, clockwork.Request{Model: "nope", SLO: time.Second}); err == nil {
		t.Fatal("Infer on unknown model should fail")
	}

	id, err := js.client.AddWorker(ctx)
	if err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	if err := js.client.DrainWorker(ctx, id); err != nil {
		t.Fatalf("DrainWorker: %v", err)
	}
	if _, err := js.client.Stats(ctx); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if _, err := js.client.Models(ctx); err != nil {
		t.Fatalf("Models: %v", err)
	}
}

// TestRecordReplayHTTP is the headline acceptance check: a live run
// over HTTP — concurrent inference, registrations, worker ops, scrapes
// and a mid-run snapshot — replays bit-identically from its journal.
func TestRecordReplayHTTP(t *testing.T) {
	dir := t.TempDir()
	js := startJournaled(t, dir,
		clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2, Seed: 7},
		journal.Options{MaxInFlight: 64})

	driveMixedTraffic(t, js, 40)
	sr := js.postSnapshot(t)
	if sr.Models != 3 || sr.Seq == 0 || sr.Path == "" {
		t.Fatalf("snapshot response: %+v", sr)
	}
	driveMixedTraffic(t, js, 20) // more traffic after the snapshot (duplicate registrations fail; fine)
	js.shutdown(t)

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if ep.Epoch != 0 || ep.Truncated || ep.Genesis == nil {
		t.Fatalf("epoch shape: epoch=%d truncated=%v genesis=%v (%s)",
			ep.Epoch, ep.Truncated, ep.Genesis != nil, ep.TruncatedNote)
	}
	if ep.Snapshot == nil || ep.SnapshotSeq != sr.Seq {
		t.Fatalf("snapshot: got seq %d (present=%v), want %d", ep.SnapshotSeq, ep.Snapshot != nil, sr.Seq)
	}

	res, err := journal.ReplayEpoch(ep)
	if err != nil {
		t.Fatalf("ReplayEpoch: %v", err)
	}
	if res.RecordedAcks < 60 {
		t.Fatalf("recorded only %d acks, want >= 60", res.RecordedAcks)
	}
	if !res.Match {
		t.Fatalf("replay mismatch:\n recorded %s (%d acks)\n replayed %s (%d acks)",
			res.RecordedHash, res.RecordedAcks, res.ReplayedHash, res.ReplayedAcks)
	}
	if res.Requests < 60 {
		t.Fatalf("replayed only %d requests", res.Requests)
	}
}

// TestRecordReplayStream drives the binary stream transport — batched
// submission included, so several recInfer records share one engine
// step, and Models frames answered while batches are in flight — and
// checks the replay regroups and matches.
func TestRecordReplayStream(t *testing.T) {
	dir := t.TempDir()
	cfg := clockwork.Config{Workers: 2, GPUsPerWorker: 1, Seed: 11}
	sys, err := clockwork.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec, err := journal.Create(dir, sys, cfg, journal.Options{Fsync: journal.FsyncNever, Speed: 2000})
	if err != nil {
		t.Fatalf("journal.Create: %v", err)
	}
	srv := serve.New(sys, serve.Options{Speed: 2000, Journal: rec})
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(hln) }()
	streamDone := make(chan error, 1)
	go func() { streamDone <- srv.ServeStream(sln) }()
	client := serve.NewClient(hln.Addr().String(), nil)
	ctx := context.Background()
	if err := client.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if err := client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	sc, err := serve.DialStream(sln.Addr().String(), serve.StreamOptions{Conns: 2})
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}

	if _, err := sc.Models(ctx); err != nil {
		t.Fatalf("stream Models: %v", err)
	}
	// Two coalesced batches plus interleaved singles.
	for round := 0; round < 2; round++ {
		reqs := make([]clockwork.Request, 24)
		for i := range reqs {
			reqs[i] = clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}
		}
		type batchOut struct {
			n   int
			err error
		}
		done := make(chan batchOut, 1)
		go func() {
			outs, err := sc.SubmitBatch(ctx, reqs)
			done <- batchOut{len(outs), err}
		}()
		// A read on the engine mid-load takes no step and no record.
		for i := 0; i < 3; i++ {
			if _, err := sc.Models(ctx); err != nil {
				t.Fatalf("stream Models mid-load: %v", err)
			}
		}
		if out := <-done; out.err != nil || out.n != len(reqs) {
			t.Fatalf("SubmitBatch: %d outcomes, %v; want %d", out.n, out.err, len(reqs))
		}
		for i := 0; i < 4; i++ {
			if _, err := sc.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
				t.Fatalf("stream Infer: %v", err)
			}
		}
	}
	sc.Close()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("ServeStream: %v", err)
	}

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res, err := journal.ReplayEpoch(ep)
	if err != nil {
		t.Fatalf("ReplayEpoch: %v", err)
	}
	if res.RecordedAcks != 56 || !res.Match {
		t.Fatalf("stream replay: acks=%d match=%v\n recorded %s\n replayed %s",
			res.RecordedAcks, res.Match, res.RecordedHash, res.ReplayedHash)
	}
}

// TestRecoveryAcrossEpochs is the restart path clockworkd takes:
// rebuild from the journal, serve a new epoch on the rebuilt system,
// and check both accounting carry-over and the new epoch's replay.
func TestRecoveryAcrossEpochs(t *testing.T) {
	dir := t.TempDir()
	cfg := clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2, Seed: 5}
	js := startJournaled(t, dir, cfg, journal.Options{})
	driveMixedTraffic(t, js, 30)
	js.shutdown(t)

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sys2, carry, rep, err := ep.Rebuild()
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if rep.Models != 3 {
		t.Fatalf("recovered %d models, want 3", rep.Models)
	}
	if rep.Workers != 3 { // 2 configured + 1 added
		t.Fatalf("recovered %d workers, want 3", rep.Workers)
	}
	// The unknown-model submission is the one recorded infer without an
	// ack — every client that got a 200 is accounted.
	if rep.Unacked != 1 {
		t.Fatalf("clean shutdown left %d unacked requests, want 1 (the failed submission)", rep.Unacked)
	}
	if rep.EpochAcked != 30 || rep.TotalAcked != 30 {
		t.Fatalf("acked accounting: epoch=%d total=%d, want 30/30", rep.EpochAcked, rep.TotalAcked)
	}
	models := sys2.Models()
	if len(models) != 3 || models[0] != "resnet" {
		t.Fatalf("rebuilt registry = %v", models)
	}
	if st, err := sys2.WorkerStateOf(2); err != nil || st != clockwork.WorkerDraining {
		t.Fatalf("worker 2 state = %v, %v; want draining", st, err)
	}

	// Epoch 1: serve on the rebuilt system, exactly as clockworkd does.
	rec2, err := journal.Create(dir, sys2, carry.Config, journal.Options{
		Fsync: journal.FsyncNever, Speed: carry.Speed, MaxInFlight: carry.MaxInFlight,
		PriorRequests: carry.PriorRequests, PriorAcked: carry.PriorAcked,
	})
	if err != nil {
		t.Fatalf("Create epoch 1: %v", err)
	}
	if rec2.Epoch() != 1 {
		t.Fatalf("second epoch = %d, want 1", rec2.Epoch())
	}
	srv2 := serve.New(sys2, serve.Options{Speed: carry.Speed, Journal: rec2})
	ts2 := httptest.NewServer(srv2.Handler())
	client2 := serve.NewClient(ts2.URL, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if res, err := client2.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil || !res.Success {
			t.Fatalf("epoch-1 Infer: %+v, %v", res, err)
		}
	}
	ts2.Close()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown epoch 1: %v", err)
	}

	ep1, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load epoch 1: %v", err)
	}
	if ep1.Epoch != 1 {
		t.Fatalf("latest epoch = %d, want 1", ep1.Epoch)
	}
	res, err := journal.ReplayEpoch(ep1)
	if err != nil {
		t.Fatalf("ReplayEpoch(1): %v", err)
	}
	if !res.Match || res.RecordedAcks != 10 {
		t.Fatalf("epoch-1 replay: match=%v acks=%d", res.Match, res.RecordedAcks)
	}
	_, _, rep1, err := ep1.Rebuild()
	if err != nil {
		t.Fatalf("Rebuild epoch 1: %v", err)
	}
	if rep1.TotalAcked != 40 || rep1.TotalRequests < 40 {
		t.Fatalf("lifetime accounting: %d acked / %d requests, want 40 acked", rep1.TotalAcked, rep1.TotalRequests)
	}
}

// TestTornTailRecovery truncates a recorded segment at every interesting
// offset: Load must never fail past the genesis frame, must never
// invent records, and must keep the ack-implies-infer prefix property
// (an ack's submission record is always journaled before it).
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	js := startJournaled(t, dir, clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 3}, journal.Options{})
	ctx := context.Background()
	if err := js.client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := js.client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
			t.Fatalf("Infer: %v", err)
		}
	}
	js.shutdown(t)

	segs, err := filepath.Glob(filepath.Join(dir, "epoch-000000-seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want exactly one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Walk the frame headers to learn every frame boundary: a cut at a
	// boundary is a clean shorter log, anywhere else is a torn tail.
	boundary := map[int]bool{0: true}
	for off := 0; off < len(data); {
		off += int(binary.LittleEndian.Uint32(data[off:off+4])) + 8
		boundary[off] = true
	}
	genesisEnd := int(binary.LittleEndian.Uint32(data[0:4])) + 8
	full, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load full: %v", err)
	}
	if full.Truncated {
		t.Fatalf("clean journal reports truncation: %s", full.TruncatedNote)
	}

	checkPrefix := func(t *testing.T, cut int) {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatalf("write cut copy: %v", err)
		}
		ep, err := journal.LoadEpoch(cdir, 0)
		if err != nil {
			t.Fatalf("cut %d: Load: %v", cut, err)
		}
		if wantTrunc := !boundary[cut]; ep.Truncated != wantTrunc {
			t.Fatalf("cut %d: Truncated = %v, want %v (%s)", cut, ep.Truncated, wantTrunc, ep.TruncatedNote)
		}
		// Ack ⊆ infer: a flushed ack implies its infer was flushed
		// first, at any cut point.
		// (The decoded chain is a strict prefix of the full chain.)
		infers := map[uint64]bool{}
		for _, rec := range replayableCorrs(ep) {
			infers[rec] = true
		}
		for _, corr := range ackedCorrs(ep) {
			if !infers[corr] {
				t.Fatalf("cut %d: ack for corr %d without its infer", cut, corr)
			}
		}
		if _, _, _, err := ep.Rebuild(); err != nil {
			t.Fatalf("cut %d: Rebuild: %v", cut, err)
		}
		if res, err := journal.ReplayEpoch(ep); err != nil {
			t.Fatalf("cut %d: ReplayEpoch: %v", cut, err)
		} else if !res.Match {
			t.Fatalf("cut %d: truncated prefix did not replay: %s vs %s", cut, res.RecordedHash, res.ReplayedHash)
		}
	}
	// Every frame boundary region near the tail plus a spread of
	// mid-frame cuts across the body.
	for cut := genesisEnd; cut <= len(data); cut += 1 + (len(data)-genesisEnd)/97 {
		checkPrefix(t, cut)
	}
	checkPrefix(t, len(data))

	// A flipped byte mid-chain is reported as truncation at that frame,
	// keeping the prefix.
	t.Run("corrupt", func(t *testing.T) {
		cdir := t.TempDir()
		mangled := bytes.Clone(data)
		mangled[genesisEnd+(len(data)-genesisEnd)/2] ^= 0x01
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0])), mangled, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		ep, err := journal.LoadEpoch(cdir, 0)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !ep.Truncated || !strings.Contains(ep.TruncatedNote, "corrupt") {
			t.Fatalf("corruption not flagged: truncated=%v note=%q", ep.Truncated, ep.TruncatedNote)
		}
		if _, _, _, err := ep.Rebuild(); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
	})
}

// TestSnapshotPruning checks RetainToSnapshot: segments behind the
// snapshot are deleted, recovery pivots to the snapshot, and
// deterministic replay honestly refuses (the genesis chain is gone).
func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	js := startJournaled(t, dir, clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 13},
		journal.Options{MaxSegmentBytes: 2048, Retain: journal.RetainToSnapshot})
	ctx := context.Background()
	if err := js.client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := js.client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
			t.Fatalf("Infer: %v", err)
		}
	}
	sr := js.postSnapshot(t)
	if sr.PrunedSegments < 1 {
		t.Fatalf("snapshot pruned %d segments, want >= 1 (segment rotation too coarse?)", sr.PrunedSegments)
	}
	js.shutdown(t)

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if ep.Genesis != nil {
		t.Fatal("genesis survived pruning; RetainToSnapshot should have dropped it")
	}
	if ep.Snapshot == nil {
		t.Fatal("no snapshot after pruning")
	}
	if _, err := journal.ReplayEpoch(ep); err == nil {
		t.Fatal("ReplayEpoch should refuse a pruned chain")
	}
	sys2, _, rep, err := ep.Rebuild()
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if !rep.UsedSnapshot {
		t.Fatal("Rebuild did not pivot to the snapshot")
	}
	if models := sys2.Models(); len(models) != 1 || models[0] != "resnet" {
		t.Fatalf("rebuilt registry = %v", models)
	}
}

// TestAdminJournalPlane covers the observability satellite: the status
// endpoint, the metrics gauges, and the 404s without a journal.
func TestAdminJournalPlane(t *testing.T) {
	t.Run("without-journal", func(t *testing.T) {
		sys, err := clockwork.New(clockwork.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(sys, serve.Options{Speed: 1000})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		resp, err := http.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
		if err != nil || resp.StatusCode != http.StatusNotFound {
			t.Fatalf("snapshot without journal: %v, %v", resp.Status, err)
		}
		resp.Body.Close()
		resp, err = http.Get(ts.URL + "/v1/admin/journal")
		if err != nil || resp.StatusCode != http.StatusNotFound {
			t.Fatalf("journal status without journal: %v, %v", resp.Status, err)
		}
		resp.Body.Close()
	})

	dir := t.TempDir()
	js := startJournaled(t, dir, clockwork.Config{Workers: 1, GPUsPerWorker: 1}, journal.Options{})
	ctx := context.Background()
	if err := js.client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	if _, err := js.client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	js.postSnapshot(t)

	resp, err := http.Get(js.ts.URL + "/v1/admin/journal")
	if err != nil {
		t.Fatalf("GET journal: %v", err)
	}
	var st journal.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode journal status: %v", err)
	}
	resp.Body.Close()
	if st.Dir != dir || st.Epoch != 0 || st.Segments < 1 {
		t.Fatalf("journal status: %+v", st)
	}
	// genesis + register + infer + ack + snapshot marker (scrapes of
	// /v1/admin/journal itself append nothing — lock-free status reads).
	if st.Records < 5 || st.Infers != 1 || st.Acks != 1 || st.Snapshots != 1 {
		t.Fatalf("journal counters: %+v", st)
	}
	if st.LastSnapshotSeq == 0 || st.LastSnapshotAge < 0 {
		t.Fatalf("snapshot status: %+v", st)
	}
	if st.Failed || st.Fsync != journal.FsyncNever {
		t.Fatalf("journal health: %+v", st)
	}

	resp, err = http.Get(js.ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"clockwork_journal_records_total",
		"clockwork_journal_infers_total 1",
		"clockwork_journal_snapshots_total 1",
		"clockwork_journal_epoch 0",
		"clockwork_journal_failed 0",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

// wireKeys returns a JSON object's top-level keys in order, with each
// key's raw value.
func wireKeys(t *testing.T, body []byte) ([]string, map[string]json.RawMessage) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", body)
	}
	var keys []string
	vals := map[string]json.RawMessage{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		keys = append(keys, tok.(string))
		vals[tok.(string)] = v
	}
	return keys, vals
}

// TestAdminJournalWireKeys pins the GET /v1/admin/journal and POST
// /v1/admin/snapshot bodies key by key, in order, as an earlier build
// served them: before and after the first snapshot, with a snapshot
// that pruned segments so its omitempty key shows.
func TestAdminJournalWireKeys(t *testing.T) {
	js := startJournaled(t, t.TempDir(), clockwork.Config{Workers: 1, GPUsPerWorker: 1},
		journal.Options{MaxSegmentBytes: 2048, Retain: journal.RetainToSnapshot})
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(js.ts.URL + "/v1/admin/journal")
		if err != nil {
			t.Fatalf("GET journal: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET journal: status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	check := func(what string, body []byte, want []string) map[string]json.RawMessage {
		t.Helper()
		keys, vals := wireKeys(t, body)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("%s keys\n got  %v\n want %v", what, keys, want)
		}
		return vals
	}
	head := []string{"dir", "epoch", "segments", "bytes", "records", "infers", "acks",
		"fsync", "unsynced_bytes", "fsync_lag_ns", "snapshots"}

	vals := check("journal before a snapshot", get(), append(head[:len(head):len(head)], "last_snapshot_age_ns"))
	if string(vals["fsync"]) != `"never"` || string(vals["last_snapshot_age_ns"]) != "-1" {
		t.Fatalf("fsync = %s, last_snapshot_age_ns = %s; want \"never\" and -1",
			vals["fsync"], vals["last_snapshot_age_ns"])
	}

	ctx := context.Background()
	if err := js.client.RegisterModel(ctx, "resnet", "resnet50_v1b"); err != nil {
		t.Fatalf("RegisterModel: %v", err)
	}
	for i := 0; i < 80; i++ {
		if _, err := js.client.Infer(ctx, clockwork.Request{Model: "resnet", SLO: 500 * time.Millisecond}); err != nil {
			t.Fatalf("Infer: %v", err)
		}
	}
	resp, err := http.Post(js.ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatalf("POST snapshot: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST snapshot: status %d: %s", resp.StatusCode, body)
	}
	check("snapshot", body, []string{"path", "seq", "step", "virtual_time_ns", "bytes",
		"models", "workers", "pruned_segments"})

	check("journal after a snapshot", get(), append(head[:len(head):len(head)],
		"last_snapshot_path", "last_snapshot_seq", "last_snapshot_age_ns"))

	// Every field set, the omitempty ones included, encodes to the
	// bytes an earlier build served, and the status decodes back.
	st := journal.Status{Dir: "d", Epoch: 1, Segments: 2, Bytes: 3, Records: 4, Infers: 5, Acks: 6,
		Fsync: journal.FsyncAlways, UnsyncedBytes: 7, FsyncLag: 8, Snapshots: 9,
		LastSnapshotPath: "p", LastSnapshotSeq: 10, LastSnapshotAge: 11, Failed: true, Err: "e"}
	for _, c := range []struct {
		v    any
		want string
	}{
		{st, `{"dir":"d","epoch":1,"segments":2,"bytes":3,"records":4,"infers":5,"acks":6,"fsync":"always","unsynced_bytes":7,"fsync_lag_ns":8,"snapshots":9,"last_snapshot_path":"p","last_snapshot_seq":10,"last_snapshot_age_ns":11,"failed":true,"error":"e"}`},
		{journal.SnapshotInfo{Path: "p", Seq: 1, Step: 2, VT: 3, Bytes: 4, Models: 5, Workers: 6, PrunedSegments: 7},
			`{"path":"p","seq":1,"step":2,"virtual_time_ns":3,"bytes":4,"models":5,"workers":6,"pruned_segments":7}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil || string(got) != c.want {
			t.Fatalf("%T encodes to %s (%v), want %s", c.v, got, err, c.want)
		}
	}
	var back journal.Status
	if b, _ := json.Marshal(st); json.Unmarshal(b, &back) != nil || back != st {
		t.Fatalf("status round trip: %+v, want %+v", back, st)
	}
}

// replayableCorrs / ackedCorrs pull correlation IDs out of a loaded
// epoch's record list.
func replayableCorrs(ep *journal.EpochData) []uint64 {
	var out []uint64
	for i := range ep.Records {
		if r := &ep.Records[i]; r.IsInfer() {
			out = append(out, r.Corr)
		}
	}
	return out
}

func ackedCorrs(ep *journal.EpochData) []uint64 {
	var out []uint64
	for i := range ep.Records {
		if r := &ep.Records[i]; r.IsAck() {
			out = append(out, r.Corr)
		}
	}
	return out
}

// TestReplayTraced is the post-hoc tracing acceptance check: a
// journaled epoch replayed with the flight recorder at sample rate 1.0
// still hashes MATCH (tracing is a pure observer), and the recorder's
// per-request traces agree one-for-one with the recorded ack stream —
// same IDs, same outcomes, same latencies.
func TestReplayTraced(t *testing.T) {
	dir := t.TempDir()
	js := startJournaled(t, dir,
		clockwork.Config{Workers: 2, GPUsPerWorker: 1, Shards: 2, Seed: 11},
		journal.Options{MaxInFlight: 64})
	driveMixedTraffic(t, js, 30)
	js.shutdown(t)

	ep, err := journal.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	plain, err := journal.ReplayEpoch(ep)
	if err != nil {
		t.Fatalf("ReplayEpoch: %v", err)
	}
	flight := trace.New(trace.Options{SampleRate: 1, Enabled: true})
	traced, err := journal.ReplayEpochTraced(ep, flight)
	if err != nil {
		t.Fatalf("ReplayEpochTraced: %v", err)
	}
	if !traced.Match {
		t.Fatalf("traced replay mismatch:\n recorded %s\n replayed %s", traced.RecordedHash, traced.ReplayedHash)
	}
	if traced.ReplayedHash != plain.ReplayedHash {
		t.Fatalf("tracing perturbed the replay: %s vs %s", traced.ReplayedHash, plain.ReplayedHash)
	}

	// Every recorded ack must have a matching trace: same outcome, same
	// latency, finalized by the recorder.
	snap := flight.Snapshot()
	byID := make(map[uint64]int)
	for i := range snap.Requests {
		byID[snap.Requests[i].ID] = i
	}
	acks := 0
	for i := range ep.Records {
		rec := &ep.Records[i]
		if !rec.IsAck() {
			continue
		}
		acks++
		j, ok := byID[rec.RequestID]
		if !ok {
			t.Fatalf("ack for request %d has no trace", rec.RequestID)
		}
		tr := &snap.Requests[j]
		if tr.Success != rec.Success || tr.Latency != rec.Latency {
			t.Fatalf("trace %d diverges from recorded ack: trace{success=%v latency=%v} ack{success=%v latency=%v}",
				rec.RequestID, tr.Success, tr.Latency, rec.Success, rec.Latency)
		}
	}
	if acks == 0 {
		t.Fatal("no acks recorded")
	}
	if got := int(flight.Aggregate().Stats.Finalized); got < acks {
		t.Fatalf("recorder finalized %d traces, recorded %d acks", got, acks)
	}
}
