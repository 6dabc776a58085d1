package journal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"clockwork"
)

// sampleState builds a representative State covering every field class:
// a non-default config, learned profiles, and mixed worker lifecycles.
func sampleState() *State {
	return &State{
		Config: clockwork.Config{
			Workers:       3,
			GPUsPerWorker: 2,
			Shards:        2,
			Policy:        clockwork.PolicyClockwork,
			Seed:          99,
		},
		Speed:         250,
		MaxInFlight:   64,
		PriorRequests: 1234,
		PriorAcked:    1200,
		Models: []ModelState{
			{Instance: "resnet", Zoo: "resnet50_v1b", Shard: 0},
			{Instance: "dense#1", Zoo: "densenet161", Shard: 1, Profile: []clockwork.ProfileEntry{
				{Op: "infer", Batch: 4, Window: []time.Duration{time.Millisecond, 2 * time.Millisecond}},
				{Op: "load", Batch: 1, Window: []time.Duration{8 * time.Millisecond}},
			}},
		},
		Workers: []uint8{workerActive, workerDraining, workerFailed},
		Step:    42,
		VT:      17 * time.Second,
	}
}

// sampleRecords covers every record type this build writes, with
// non-default field values.
func sampleRecords() []Record {
	return []Record{
		{Type: recGenesis, Seq: 0, Step: 0, VT: 0, State: sampleState()},
		{Type: recInfer, Seq: 1, Step: 7, VT: 3 * time.Millisecond, Shard: 1, Corr: 11,
			Model: "resnet", SLO: 250 * time.Millisecond, Priority: -2, Tenant: "acme", MaxBatch: 8},
		{Type: recAck, Seq: 2, Step: 19, VT: 9 * time.Millisecond, Corr: 11, RequestID: 5,
			Success: true, Reason: 0, Latency: 6 * time.Millisecond, Batch: 4, ColdStart: true},
		{Type: recAck, Seq: 3, Step: 20, VT: 10 * time.Millisecond, Corr: 12, RequestID: 6,
			Success: false, Reason: 3, Latency: -1},
		{Type: recRegister, Seq: 4, Step: 21, VT: 11 * time.Millisecond,
			Op: Register{Instance: "dense", Zoo: "densenet161", Copies: 4}},
		{Type: recAddWorker, Seq: 5, Step: 22, VT: 12 * time.Millisecond, Op: AddWorker{}},
		{Type: recDrainWorker, Seq: 6, Step: 23, VT: 13 * time.Millisecond, Op: DrainWorker{ID: 2}},
		{Type: recFailWorker, Seq: 7, Step: 24, VT: 14 * time.Millisecond, Op: FailWorker{ID: 1}},
		{Type: recRebalance, Seq: 8, Step: 25, VT: 15 * time.Millisecond, Op: Rebalance{}},
		{Type: recSnapshot, Seq: 10, Step: 27, VT: 17 * time.Millisecond},
		{Type: recAutoscale, Seq: 11, Step: 28, VT: 18 * time.Millisecond,
			Op: Autoscale{Window: 48, AddWorkers: 1, Drain: -1, Rebalance: true}},
		{Type: recAutoscale, Seq: 12, Step: 29, VT: 19 * time.Millisecond,
			Op: Autoscale{Window: 8, Drain: 2}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		payload := appendRecord(nil, &want)
		var got Record
		if err := decodeRecord(payload, &got); err != nil {
			t.Fatalf("type %d: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("type %d: round trip mismatch:\n got  %+v\n want %+v", want.Type, got, want)
		}
	}
}

// sampleRecordHex is each sampleRecords entry's payload as an earlier
// build encoded it. A change that moves one changes the journal's
// bytes: old journals no longer decode, or decode to other records.
// The genesis row carries state version 2 (byte 5): the layout is
// version 1's, and the version names the epoch's replay rule — its
// barriers ran between engine steps, so its op and snapshot records
// take no step on replay.
var sampleRecordHex = []string{
	"0100000002030202000009636c6f636b776f726b630000000000000000000000406f408001d209b00902067265736e65740c7265736e657435305f76316200000764656e736523310b64656e73656e6574313631010205696e666572080280897a8092f401046c6f6164020180c8d007030001022a80a8bbd47e",
	"020107809bee02010b067265736e657480cab5ee01030461636d6510",
	"03021380d1ca080b05010080b6dc050801",
	"03031480dac4090c060003010000",
	"04041580e3be0a0564656e73650b64656e73656e657431363104",
	"05051680ecb80b",
	"06061780f5b20c02",
	"07071880feac0d01",
	"0808198087a70e",
	"0a0a1b80999b10",
	"0b0b1c80a2951160010101",
	"0b0c1d80ab8f1210000400",
}

// legacyRecordHex are payloads version-1 epochs hold and this build
// still reads but no longer writes: the genesis row at state version 1,
// and a type-9 read record.
var legacyRecordHex = []string{
	"0100000001030202000009636c6f636b776f726b630000000000000000000000406f408001d209b00902067265736e65740c7265736e657435305f76316200000764656e736523310b64656e73656e6574313631010205696e666572080280897a8092f401046c6f6164020180c8d007030001022a80a8bbd47e",
	"09091a8090a10f",
}

func TestRecordBytesPinned(t *testing.T) {
	recs := sampleRecords()
	if len(recs) != len(sampleRecordHex) {
		t.Fatalf("%d sample records, %d pinned encodings", len(recs), len(sampleRecordHex))
	}
	for i := range recs {
		if got := hex.EncodeToString(appendRecord(nil, &recs[i])); got != sampleRecordHex[i] {
			t.Errorf("record %d (type %d) encodes to\n %s\nwant\n %s", i, recs[i].Type, got, sampleRecordHex[i])
		}
	}

	// Decode-only rows: each must still decode to what it meant.
	legacyState := *recs[0].State
	legacyState.legacy = true
	legacyGenesis := recs[0]
	legacyGenesis.State = &legacyState
	for i, want := range []Record{
		legacyGenesis,
		{Type: recRead, Seq: 9, Step: 26, VT: 16 * time.Millisecond},
	} {
		payload, err := hex.DecodeString(legacyRecordHex[i])
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := decodeRecord(payload, &got); err != nil {
			t.Fatalf("legacy row %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("legacy row %d decodes to\n %+v\nwant\n %+v", i, got, want)
		}
	}
}

// TestLegacyReplayRule: in a version-1 epoch every read, op or
// snapshot-marker record consumed one engine step, so its replay
// consumes one for each; a version-2 epoch's records take none.
func TestLegacyReplayRule(t *testing.T) {
	for _, legacy := range []bool{true, false} {
		st := &State{Config: clockwork.Config{Workers: 1, GPUsPerWorker: 1, Seed: 1}, legacy: legacy}
		e := &EpochData{Genesis: st, Records: []Record{{Type: recGenesis, State: st}}}
		for i := uint64(1); i <= 3; i++ {
			r := Record{Type: recRead, Seq: i, VT: time.Duration(i) * time.Millisecond}
			switch i {
			case 2:
				r.Type, r.Op = recAddWorker, AddWorker{}
			case 3:
				r.Type = recSnapshot
			}
			if legacy {
				r.Step = i // each record's own step
			}
			e.Records = append(e.Records, r)
		}
		res, err := ReplayEpoch(e)
		if err != nil {
			t.Fatalf("legacy=%v: ReplayEpoch: %v", legacy, err)
		}
		want := uint64(0)
		if legacy {
			want = 3
		}
		if res.FinalStep != want || res.FinalVT != 3*time.Millisecond {
			t.Fatalf("legacy=%v: replay ended at step %d, %v; want step %d, 3ms", legacy, res.FinalStep, res.FinalVT, want)
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var stream []byte
	for i := range recs {
		stream = appendFrame(stream, appendRecord(nil, &recs[i]))
	}
	off := 0
	for i := range recs {
		payload, next, err := readFrame(stream, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got Record
		if err := decodeRecord(payload, &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if got.Seq != recs[i].Seq || got.Type != recs[i].Type {
			t.Fatalf("frame %d: got (type %d, seq %d), want (type %d, seq %d)",
				i, got.Type, got.Seq, recs[i].Type, recs[i].Seq)
		}
		off = next
	}
	if off != len(stream) {
		t.Fatalf("decoded %d of %d bytes", off, len(stream))
	}
}

// TestTornFrame checks that truncating a frame stream at EVERY byte
// offset either yields a clean shorter prefix or ErrTornFrame — never a
// corruption error, never a panic, never a record that was not written.
func TestTornFrame(t *testing.T) {
	recs := sampleRecords()
	var stream []byte
	frameEnds := []int{}
	for i := range recs {
		stream = appendFrame(stream, appendRecord(nil, &recs[i]))
		frameEnds = append(frameEnds, len(stream))
	}
	for cut := 0; cut < len(stream); cut++ {
		data := stream[:cut]
		off, decoded := 0, 0
		for off < len(data) {
			payload, next, err := readFrame(data, off)
			if err != nil {
				if !errors.Is(err, ErrTornFrame) {
					t.Fatalf("cut %d: unexpected error class %v", cut, err)
				}
				break
			}
			var r Record
			if err := decodeRecord(payload, &r); err != nil {
				t.Fatalf("cut %d: intact frame failed decode: %v", cut, err)
			}
			decoded++
			off = next
		}
		// The decodable prefix must be exactly the frames wholly inside
		// the cut.
		whole := 0
		for _, end := range frameEnds {
			if end <= cut {
				whole++
			}
		}
		if decoded != whole {
			t.Fatalf("cut %d: decoded %d frames, want %d", cut, decoded, whole)
		}
	}
}

// TestCorruptFrame flips one byte inside a frame's payload and checks
// the checksum rejects it with ErrCorruptFrame.
func TestCorruptFrame(t *testing.T) {
	rec := sampleRecords()[1]
	stream := appendFrame(nil, appendRecord(nil, &rec))
	for i := frameHeaderSize; i < len(stream); i++ {
		data := bytes.Clone(stream)
		data[i] ^= 0x40
		_, _, err := readFrame(data, 0)
		if err == nil || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: got %v, want ErrCorruptFrame", i, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	rec := sampleRecords()[9] // recSnapshot: empty body
	payload := appendRecord(nil, &rec)
	payload = append(payload, 0xAB)
	var got Record
	if err := decodeRecord(payload, &got); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing byte: got %v, want ErrCorruptFrame", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var hdr [frameHeaderSize]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	_, _, err := readFrame(hdr[:], 0)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized length: got %v, want ErrCorruptFrame", err)
	}
}

func TestParseName(t *testing.T) {
	cases := []struct {
		in    string
		epoch int
		n     uint64
		kind  string
		ok    bool
	}{
		{"epoch-000002-seg-000000000100.wal", 2, 100, "seg", true},
		{"epoch-000000-snap-000000000042.snap", 0, 42, "snap", true},
		{"epoch-000000-snap-000000000042.snap.tmp", 0, 0, "", false},
		{"epoch-xx-seg-000000000000.wal", 0, 0, "", false},
		{"seg-000000000000.wal", 0, 0, "", false},
		{"epoch-000001-seg-abc.wal", 0, 0, "", false},
	}
	for _, c := range cases {
		e, n, k, ok := parseName(c.in)
		if e != c.epoch || n != c.n || k != c.kind || ok != c.ok {
			t.Errorf("parseName(%q) = (%d, %d, %q, %v), want (%d, %d, %q, %v)",
				c.in, e, n, k, ok, c.epoch, c.n, c.kind, c.ok)
		}
	}
}
