package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestInferRoundTrip(t *testing.T) {
	frames := []InferFrame{
		{},
		{Corr: 1, SLO: 250_000_000, Model: "resnet50_v1b"},
		{Corr: 1<<64 - 1, SLO: -1, Priority: -42, MaxBatch: 16, Model: "m", Tenant: "t"},
		{Corr: 7, SLO: 1, Priority: 1 << 40, MaxBatch: -3, Model: "a/b#0", Tenant: "tenant-β"},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := range frames {
		if err := enc.Infer(&frames[i]); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	dec := NewDecoder(&buf)
	for i := range frames {
		typ, p, err := dec.Next()
		if err != nil || typ != TypeInfer {
			t.Fatalf("frame %d: type=%d err=%v", i, typ, err)
		}
		var got InferFrame
		if err := dec.DecodeInfer(p, &got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != frames[i] {
			t.Fatalf("frame %d: got %+v want %+v", i, got, frames[i])
		}
	}
	if _, _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestResultErrorModelsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	res := ResultFrame{Corr: 9, RequestID: 1234, Latency: 3_530_000, Batch: 4,
		Reason: 2, Success: true, ColdStart: true}
	errF := ErrorFrame{Corr: 10, Code: CodeUnknownModel, Message: "unknown model \"nope\""}
	models := []string{"resnet#0", "resnet#1", "densenet"}
	if err := enc.Result(&res); err != nil {
		t.Fatal(err)
	}
	if err := enc.Error(&errF); err != nil {
		t.Fatal(err)
	}
	if err := enc.Models(77); err != nil {
		t.Fatal(err)
	}
	if err := enc.ModelList(77, models); err != nil {
		t.Fatal(err)
	}
	if err := enc.ModelList(78, nil); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(&buf)
	typ, p, err := dec.Next()
	if err != nil || typ != TypeResult {
		t.Fatalf("result frame: type=%d err=%v", typ, err)
	}
	var gotRes ResultFrame
	if err := DecodeResult(p, &gotRes); err != nil || gotRes != res {
		t.Fatalf("result: got %+v (%v), want %+v", gotRes, err, res)
	}
	typ, p, err = dec.Next()
	if err != nil || typ != TypeError {
		t.Fatalf("error frame: type=%d err=%v", typ, err)
	}
	var gotErr ErrorFrame
	if err := DecodeError(p, &gotErr); err != nil || gotErr != errF {
		t.Fatalf("error: got %+v (%v), want %+v", gotErr, err, errF)
	}
	typ, p, err = dec.Next()
	if err != nil || typ != TypeModels {
		t.Fatalf("models frame: type=%d err=%v", typ, err)
	}
	if corr, err := DecodeCorr(p); err != nil || corr != 77 {
		t.Fatalf("models corr: %d, %v", corr, err)
	}
	typ, p, err = dec.Next()
	if err != nil || typ != TypeModelList {
		t.Fatalf("modellist frame: type=%d err=%v", typ, err)
	}
	var gotList ModelListFrame
	if err := dec.DecodeModelList(p, &gotList); err != nil || gotList.Corr != 77 {
		t.Fatalf("modellist: %+v, %v", gotList, err)
	}
	if len(gotList.Models) != len(models) {
		t.Fatalf("modellist: got %v want %v", gotList.Models, models)
	}
	for i := range models {
		if gotList.Models[i] != models[i] {
			t.Fatalf("modellist[%d]: got %q want %q", i, gotList.Models[i], models[i])
		}
	}
	typ, p, err = dec.Next()
	if err != nil || typ != TypeModelList {
		t.Fatalf("empty modellist frame: type=%d err=%v", typ, err)
	}
	if err := dec.DecodeModelList(p, &gotList); err != nil || gotList.Corr != 78 || len(gotList.Models) != 0 {
		t.Fatalf("empty modellist: %+v, %v", gotList, err)
	}
}

// TestCodecZeroAlloc is the steady-state allocation contract: once the
// decoder has interned the model/tenant names and the buffers are
// warm, an infer+result round trip allocates nothing.
func TestCodecZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	dec := NewDecoder(&buf)
	inf := InferFrame{Corr: 1, SLO: 250_000_000, MaxBatch: 8, Model: "resnet50_v1b", Tenant: "acme"}
	res := ResultFrame{Corr: 1, RequestID: 42, Latency: 3_530_000, Batch: 4, Success: true}
	roundTrip := func() {
		inf.Corr++
		res.Corr++
		if err := enc.Infer(&inf); err != nil {
			t.Fatal(err)
		}
		if err := enc.Result(&res); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			typ, p, err := dec.Next()
			if err != nil {
				t.Fatal(err)
			}
			switch typ {
			case TypeInfer:
				var f InferFrame
				if err := dec.DecodeInfer(p, &f); err != nil || f.Model != inf.Model {
					t.Fatalf("decode infer: %+v, %v", f, err)
				}
			case TypeResult:
				var f ResultFrame
				if err := DecodeResult(p, &f); err != nil || f.RequestID != res.RequestID {
					t.Fatalf("decode result: %+v, %v", f, err)
				}
			}
		}
	}
	roundTrip() // warm buffers and intern table
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("steady-state round trip allocates %.1f/op, want 0", allocs)
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	// Oversized header.
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrameSize+1)
	hdr[4] = TypeInfer
	dec := NewDecoder(bytes.NewReader(hdr[:]))
	if _, _, err := dec.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}

	// Truncated payload.
	binary.LittleEndian.PutUint32(hdr[:4], 16)
	dec = NewDecoder(bytes.NewReader(append(hdr[:], 1, 2, 3)))
	if _, _, err := dec.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want ErrUnexpectedEOF", err)
	}

	// Truncated header.
	dec = NewDecoder(bytes.NewReader(hdr[:3]))
	if _, _, err := dec.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v, want ErrUnexpectedEOF", err)
	}

	// Malformed payloads: every decode must fail, never panic.
	bad := [][]byte{
		{},              // empty: missing fields
		{0x80},          // truncated uvarint
		{1, 2},          // short for any type
		{1, 1, 1, 1, 9}, // infer: string length beyond payload
	}
	d := NewDecoder(bytes.NewReader(nil))
	for _, p := range bad {
		var inf InferFrame
		if err := d.DecodeInfer(p, &inf); err == nil {
			t.Errorf("DecodeInfer(%v) accepted", p)
		}
		var res ResultFrame
		if err := DecodeResult(p, &res); err == nil && len(p) < 6 {
			t.Errorf("DecodeResult(%v) accepted", p)
		}
	}
	// Trailing junk after a valid payload.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Infer(&InferFrame{Corr: 1, Model: "m"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, p, err := NewDecoder(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	var inf InferFrame
	if err := d.DecodeInfer(append(append([]byte{}, p...), 0), &inf); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("trailing junk: %v, want ErrMalformedFrame", err)
	}

	// ModelList with an absurd count must be rejected before allocating.
	count := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<40)
	var ml ModelListFrame
	if err := d.DecodeModelList(count, &ml); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("huge model count: %v, want ErrMalformedFrame", err)
	}
}

// chunkReader hands out one scripted chunk per Read and counts Reads.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	r.chunks = r.chunks[1:]
	return n, nil
}

// TestFrameReady: true exactly when a whole frame is buffered, and the
// check itself never reads the connection.
func TestFrameReady(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for corr := uint64(1); corr <= 2; corr++ {
		if err := enc.Infer(&InferFrame{Corr: corr, Model: "resnet50_v1b"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	two := buf.Bytes()
	first := headerSize + int(binary.LittleEndian.Uint32(two))
	for _, tc := range []struct {
		name  string
		chunk int // bytes of the two frames the one Read delivers
		ready bool
	}{
		{"partial header", first + headerSize - 1, false},
		{"partial payload", len(two) - 1, false},
		{"whole frame", len(two), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &chunkReader{chunks: [][]byte{two[:tc.chunk]}}
			dec := NewDecoder(r)
			if dec.FrameReady() {
				t.Fatal("FrameReady before anything was read")
			}
			if _, _, err := dec.Next(); err != nil {
				t.Fatalf("first frame: %v", err)
			}
			reads := r.reads
			if got := dec.FrameReady(); got != tc.ready {
				t.Fatalf("FrameReady = %v with %d of %d bytes of the second frame buffered", got, tc.chunk-first, len(two)-first)
			}
			if r.reads != reads {
				t.Fatal("FrameReady read the connection")
			}
			if tc.ready {
				if _, _, err := dec.Next(); err != nil || r.reads != reads {
					t.Fatalf("second frame: %v after %d more reads", err, r.reads-reads)
				}
				if dec.FrameReady() {
					t.Fatal("FrameReady with nothing buffered")
				}
			}
		})
	}
}
