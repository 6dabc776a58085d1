package serve

import (
	"errors"
	"net/http"

	"clockwork"
	"clockwork/serve/stream"
)

// Typed serving-plane errors. They complement the clockwork error
// taxonomy with conditions only a live server can produce; both
// transports map them onto the wire (HTTP status + code string, stream
// error-frame code byte) and both clients map them back, so errors.Is
// works identically in-process, over JSON and over the binary stream.
var (
	// ErrOverloaded: the server's in-flight admission window is full
	// (Options.MaxInFlight). HTTP answers 429 with Retry-After; the
	// stream transport answers a typed error frame. Back off and retry.
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("serve: server draining")
	// ErrStreamClosed: the stream transport's connection dropped (or was
	// closed) with the request still in flight. The request itself may
	// still run to its outcome server-side; only the response channel is
	// gone.
	ErrStreamClosed = errors.New("serve: stream connection closed")
)

// wireCode is one row of the serving plane's error vocabulary: the
// JSON transport's (status, code string) pair, the stream transport's
// code byte, and the typed error both map back to. One table keeps the
// two front doors from drifting.
type wireCode struct {
	code   string
	status int
	wire   uint8
	err    error
}

var wireCodes = []wireCode{
	{"unknown_model", http.StatusNotFound, stream.CodeUnknownModel, clockwork.ErrUnknownModel},
	{"duplicate_model", http.StatusConflict, stream.CodeDuplicateModel, clockwork.ErrDuplicateModel},
	{"invalid_request", http.StatusBadRequest, stream.CodeInvalidRequest, clockwork.ErrInvalidRequest},
	{"no_such_worker", http.StatusNotFound, stream.CodeNoSuchWorker, clockwork.ErrNoSuchWorker},
	{"worker_down", http.StatusConflict, stream.CodeWorkerDown, clockwork.ErrWorkerDown},
	{"model_busy", http.StatusConflict, stream.CodeModelBusy, clockwork.ErrModelBusy},
	{"no_such_shard", http.StatusNotFound, stream.CodeNoSuchShard, clockwork.ErrNoSuchShard},
	{"overloaded", http.StatusTooManyRequests, stream.CodeOverloaded, ErrOverloaded},
	{"draining", http.StatusServiceUnavailable, stream.CodeDraining, ErrDraining},
	{"stopped", http.StatusServiceUnavailable, stream.CodeStopped, clockwork.ErrLiveStopped},
}

// errToCode maps a typed error onto its (status, code) pair; unmatched
// errors are 500 "internal".
func errToCode(err error) (int, string) {
	for _, c := range wireCodes {
		if errors.Is(err, c.err) {
			return c.status, c.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// errToWire maps a typed error onto the stream transport's code byte.
func errToWire(err error) uint8 {
	for _, c := range wireCodes {
		if errors.Is(err, c.err) {
			return c.wire
		}
	}
	return stream.CodeInternal
}

// codeToErr maps a JSON wire code back onto the typed error (nil for
// "internal" and unknown codes).
func codeToErr(code string) error {
	for _, c := range wireCodes {
		if c.code == code {
			return c.err
		}
	}
	return nil
}

// wireToCode maps a stream code byte onto the JSON transport's
// (status, code) vocabulary, so stream errors render as APIError with
// the same fields a JSON client would see.
func wireToCode(wire uint8) (int, string) {
	for _, c := range wireCodes {
		if c.wire == wire {
			return c.status, c.code
		}
	}
	return http.StatusInternalServerError, "internal"
}
