package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"testing"
	"time"

	"clockwork"
)

// TestInferNonCanonicalBodies pins what POST /v1/infer answers to
// bodies off the canonical path — case-folded keys, nulls, non-integer
// numbers, duplicate keys, trailing bytes, an empty body and model
// names that need escaping — as encoding/json decided them before the
// infer codec existed. Every row must answer the same whichever decoder
// and encoder handle it. Successful bodies are compared byte for byte
// with the two run-dependent numbers masked.
func TestInferNonCanonicalBodies(t *testing.T) {
	_, client := newTestServer(t, clockwork.Config{Workers: 1, GPUsPerWorker: 2}, 1000)
	ctx := context.Background()
	for _, m := range []string{"m", "a<b", "é"} {
		if err := client.RegisterModel(ctx, m, "resnet50_v1b"); err != nil {
			t.Fatal(err)
		}
		// Warm each model so no row below is a cold start.
		if _, err := client.Infer(ctx, clockwork.Request{Model: m, SLO: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	const ok = `{"request_id":N,"model":"m","success":true,"latency_ns":N,"batch":1}` + "\n"
	rows := []struct {
		name, body string
		status     int
		code, resp string // resp for a 200, code otherwise
	}{
		{"canonical", `{"model":"m","slo_ns":1000000000}`, 200, "", ok},
		{"upper-case keys", `{"MODEL":"m","Slo_Ns":1000000000}`, 200, "", ok},
		{"null model", `{"model":null,"slo_ns":1000000000}`, 400, "invalid_request", ""},
		{"null slo", `{"model":"m","slo_ns":null}`, 400, "invalid_request", ""},
		{"exponent slo", `{"model":"m","slo_ns":1e9}`, 400, "bad_json", ""},
		{"fraction priority", `{"model":"m","slo_ns":1000000000,"priority":1.5}`, 400, "bad_json", ""},
		{"leading zero", `{"model":"m","slo_ns":01}`, 400, "bad_json", ""},
		{"overflowing slo", `{"model":"m","slo_ns":9223372036854775808}`, 400, "bad_json", ""},
		{"negative slo", `{"model":"m","slo_ns":-1}`, 400, "invalid_request", ""},
		{"duplicate key", `{"model":"nope","slo_ns":1000000000,"model":"m"}`, 200, "", ok},
		{"unknown key", `{"model":"m","x":[1,{"y":null}],"slo_ns":1000000000}`, 200, "", ok},
		{"trailing space", " {\"model\":\"m\",\"slo_ns\":1000000000}\r\n\t", 200, "", ok},
		{"trailing garbage", `{"model":"m","slo_ns":1000000000} x`, 400, "bad_json", ""},
		{"empty body", ``, 400, "bad_json", ""},
		{"not an object", `["m"]`, 400, "bad_json", ""},
		{"html name raw", `{"model":"a<b","slo_ns":1000000000}`, 200, "",
			`{"request_id":N,"model":"a\u003cb","success":true,"latency_ns":N,"batch":1}` + "\n"},
		{"html name escaped", `{"model":"a\u003cb","slo_ns":1000000000}`, 200, "",
			`{"request_id":N,"model":"a\u003cb","success":true,"latency_ns":N,"batch":1}` + "\n"},
		{"non-ascii name raw", `{"model":"é","slo_ns":1000000000}`, 200, "",
			`{"request_id":N,"model":"é","success":true,"latency_ns":N,"batch":1}` + "\n"},
		{"non-ascii name escaped", `{"model":"\u00e9","slo_ns":1000000000}`, 200, "",
			`{"request_id":N,"model":"é","success":true,"latency_ns":N,"batch":1}` + "\n"},
		{"tenant to escape", `{"model":"m","slo_ns":1000000000,"tenant":"t&u"}`, 200, "",
			`{"request_id":N,"model":"m","tenant":"t\u0026u","success":true,"latency_ns":N,"batch":1}` + "\n"},
		{"invalid utf-8 name", "{\"model\":\"\xff\",\"slo_ns\":1000000000}", 404, "unknown_model", ""},
		{"line separator tenant", "{\"model\":\"m\",\"slo_ns\":1000000000,\"tenant\":\"\u2028\"}", 200, "",
			`{"request_id":N,"model":"m","tenant":"\u2028","success":true,"latency_ns":N,"batch":1}` + "\n"},
	}
	mask := regexp.MustCompile(`("request_id"|"latency_ns"):[0-9]+`)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			resp, err := http.Post(client.base+"/v1/infer", "application/json", bytes.NewReader([]byte(row.body)))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != row.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, row.status, body)
			}
			if row.status != http.StatusOK {
				var e errorResponse
				if err := json.Unmarshal(body, &e); err != nil || e.Code != row.code {
					t.Fatalf("error body %q, want code %q", body, row.code)
				}
				return
			}
			if got := mask.ReplaceAllString(string(body), "$1:N"); got != row.resp {
				t.Fatalf("body %q, want %q", got, row.resp)
			}
		})
	}
}

// FuzzInferJSON holds the infer codec to encoding/json, the reference
// it must equal wherever it does not decline:
//   - on arbitrary bytes, whatever either decoder accepts, json.Unmarshal
//     accepts too and decodes to the identical struct, and what it
//     declines leaves the zero value;
//   - on arbitrary field values, each encoder declines or writes
//     encoding/json's bytes exactly (json.Marshal for the client's
//     request, Encoder.Encode for the server's response), and each
//     decoder recovers the struct from encoding/json's bytes or declines.
//
// The committed corpus (testdata/fuzz/FuzzInferJSON) adds the bodies
// and values encoding/json treats specially: case-folded keys, null,
// exponents, overflow, duplicate keys, trailing bytes, <>&, non-ASCII
// and escapes, negative durations and request IDs above MaxInt64.
func FuzzInferJSON(f *testing.F) {
	f.Add([]byte(`{"model":"m","slo_ns":1000000000}`), "m", "", "",
		int64(1_000_000_000), int64(0), int64(0), uint64(1), uint8(0), true, false)
	f.Add([]byte(`{"request_id":9,"model":"m","tenant":"t","success":false,"reason":"cancelled","reason_code":3,"latency_ns":-5,"batch":4,"cold_start":true}`+"\n"),
		"m", "t", "cancelled", int64(-5), int64(-2), int64(4), uint64(math.MaxUint64), uint8(255), false, true)
	f.Fuzz(func(t *testing.T, body []byte, model, tenant, reason string, n, prio, batch int64, id uint64, code uint8, success, cold bool) {
		var reqWant InferRequest
		if req, ok := parseInferRequest(body); ok {
			if err := json.Unmarshal(body, &reqWant); err != nil || req != reqWant {
				t.Fatalf("request decoder accepted %q as %+v; encoding/json: %+v, %v", body, req, reqWant, err)
			}
		} else if req != (InferRequest{}) {
			t.Fatalf("request decoder declined %q with %+v, not the zero value", body, req)
		}
		var respWant InferResponse
		if resp, ok := parseInferResponse(body); ok {
			if err := json.Unmarshal(body, &respWant); err != nil || resp != respWant {
				t.Fatalf("response decoder accepted %q as %+v; encoding/json: %+v, %v", body, resp, respWant, err)
			}
		} else if resp != (InferResponse{}) {
			t.Fatalf("response decoder declined %q with %+v, not the zero value", body, resp)
		}

		req := InferRequest{Model: model, SLO: time.Duration(n), Priority: int(prio), Tenant: tenant, MaxBatchSize: int(batch)}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := appendInferRequest(nil, &req); ok && !bytes.Equal(got, want) {
			t.Fatalf("request encoder wrote %q, json.Marshal %q", got, want)
		}
		if reqBack, ok := parseInferRequest(want); ok && reqBack != req {
			t.Fatalf("request decoder read %q as %+v, want %+v", want, reqBack, req)
		}

		resp := InferResponse{RequestID: id, Model: model, Tenant: tenant, Success: success, Reason: reason,
			ReasonCode: code, Latency: time.Duration(n), Batch: int(batch), ColdStart: cold}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got, ok := appendInferResponse(nil, &resp); ok && !bytes.Equal(got, enc.Bytes()) {
			t.Fatalf("response encoder wrote %q, json.Encoder %q", got, enc.Bytes())
		}
		if respBack, ok := parseInferResponse(enc.Bytes()); ok && respBack != resp {
			t.Fatalf("response decoder read %q as %+v, want %+v", enc.Bytes(), respBack, resp)
		}
	})
}
