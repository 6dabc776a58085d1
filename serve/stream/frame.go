package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// Frame types. A zero type byte is invalid, so an all-zero header is
// rejected rather than silently decoded.
const (
	// TypeInfer (client→server) submits one inference.
	TypeInfer uint8 = 1
	// TypeResult (server→client) carries a completed inference outcome.
	TypeResult uint8 = 2
	// TypeError (server→client) answers a frame that could not be
	// served, carrying a stable error code plus a human-readable message.
	TypeError uint8 = 3
	// TypeModels (client→server) asks for the registered model list.
	TypeModels uint8 = 4
	// TypeModelList (server→client) answers TypeModels.
	TypeModelList uint8 = 5
)

// Error codes carried by TypeError frames. They mirror the HTTP wire
// codes of the JSON transport (package serve maps both onto the typed
// clockwork errors), so the two front doors cannot drift.
const (
	CodeInternal       uint8 = 0
	CodeUnknownModel   uint8 = 1
	CodeDuplicateModel uint8 = 2
	CodeInvalidRequest uint8 = 3
	CodeNoSuchWorker   uint8 = 4
	CodeWorkerDown     uint8 = 5
	CodeModelBusy      uint8 = 6
	// 7 was "no such shard"; it is retired, not reused.
	// CodeOverloaded: the server's in-flight admission window is full;
	// retry after backing off (the binary-wire form of HTTP 429).
	CodeOverloaded uint8 = 8
	// CodeDraining: the server is shutting down and admits no new work
	// (the binary-wire form of HTTP 503 while draining).
	CodeDraining uint8 = 9
	// CodeStopped: the server's live driver has stopped, so the frame
	// could not reach the engine (the binary-wire form of HTTP 503
	// "stopped").
	CodeStopped uint8 = 10
)

const (
	headerSize = 5

	// MaxFrameSize caps a frame payload (1MB, like the HTTP transport's
	// body cap) so a hostile peer cannot grow memory with one header.
	MaxFrameSize = 1 << 20

	// Intern-table bounds: model/tenant names repeat on every request,
	// so the decoder interns them — but only boundedly many and only
	// short ones, so a hostile peer cannot grow the table without limit.
	maxInternEntries = 4096
	maxInternLen     = 256
)

// Result flag bits.
const (
	flagSuccess   = 1 << 0
	flagColdStart = 1 << 1
)

var (
	// ErrFrameTooLarge reports a header announcing a payload beyond
	// MaxFrameSize.
	ErrFrameTooLarge = errors.New("stream: frame exceeds size limit")
	// ErrMalformedFrame reports a payload that does not parse as its
	// frame type (truncated varint, short string, trailing bytes).
	ErrMalformedFrame = errors.New("stream: malformed frame payload")
	// ErrUnknownFrameType reports a type byte this codec version does
	// not know.
	ErrUnknownFrameType = errors.New("stream: unknown frame type")
)

// InferFrame is the decoded form of a TypeInfer payload. SLO and
// Latency travel as nanoseconds.
type InferFrame struct {
	Corr     uint64
	SLO      int64
	Priority int64
	MaxBatch int64
	Model    string
	Tenant   string
}

// ResultFrame is the decoded form of a TypeResult payload. Model and
// tenant are not echoed — the client correlates by Corr and already
// knows what it asked for.
type ResultFrame struct {
	Corr      uint64
	RequestID uint64
	Latency   int64
	Batch     uint64
	Reason    uint8
	Success   bool
	ColdStart bool
}

// ErrorFrame is the decoded form of a TypeError payload.
type ErrorFrame struct {
	Corr    uint64
	Code    uint8
	Message string
}

// ModelListFrame is the decoded form of a TypeModelList payload.
type ModelListFrame struct {
	Corr   uint64
	Models []string
}

// Encoder writes frames to w through an internal buffered writer,
// reusing one payload scratch buffer across frames: steady-state
// encoding allocates nothing. Not safe for concurrent use.
type Encoder struct {
	w   *bufio.Writer
	buf []byte
	// hdr is header scratch; a field rather than a stack array so the
	// io.Writer call does not force a heap escape per frame.
	hdr [headerSize]byte
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 32<<10), buf: make([]byte, 0, 256)}
}

// Infer encodes f as a TypeInfer frame.
func (e *Encoder) Infer(f *InferFrame) error {
	b := e.buf[:0]
	b = binary.AppendUvarint(b, f.Corr)
	b = binary.AppendVarint(b, f.SLO)
	b = binary.AppendVarint(b, f.Priority)
	b = binary.AppendVarint(b, f.MaxBatch)
	b = appendString(b, f.Model)
	b = appendString(b, f.Tenant)
	e.buf = b
	return e.frame(TypeInfer, b)
}

// Result encodes f as a TypeResult frame.
func (e *Encoder) Result(f *ResultFrame) error {
	var flags uint8
	if f.Success {
		flags |= flagSuccess
	}
	if f.ColdStart {
		flags |= flagColdStart
	}
	b := e.buf[:0]
	b = binary.AppendUvarint(b, f.Corr)
	b = binary.AppendUvarint(b, f.RequestID)
	b = append(b, flags, f.Reason)
	b = binary.AppendVarint(b, f.Latency)
	b = binary.AppendUvarint(b, f.Batch)
	e.buf = b
	return e.frame(TypeResult, b)
}

// Error encodes f as a TypeError frame.
func (e *Encoder) Error(f *ErrorFrame) error {
	b := e.buf[:0]
	b = binary.AppendUvarint(b, f.Corr)
	b = append(b, f.Code)
	b = appendString(b, f.Message)
	e.buf = b
	return e.frame(TypeError, b)
}

// Models encodes a TypeModels request frame.
func (e *Encoder) Models(corr uint64) error {
	b := binary.AppendUvarint(e.buf[:0], corr)
	e.buf = b
	return e.frame(TypeModels, b)
}

// ModelList encodes a TypeModelList frame.
func (e *Encoder) ModelList(corr uint64, models []string) error {
	b := e.buf[:0]
	b = binary.AppendUvarint(b, corr)
	b = binary.AppendUvarint(b, uint64(len(models)))
	for _, m := range models {
		b = appendString(b, m)
	}
	e.buf = b
	return e.frame(TypeModelList, b)
}

func (e *Encoder) frame(typ uint8, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	hdr := e.hdr[:]
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := e.w.Write(hdr); err != nil {
		return err
	}
	_, err := e.w.Write(payload)
	return err
}

// Flush pushes buffered frames to the underlying writer. Callers
// coalesce writes by encoding several frames per Flush.
func (e *Encoder) Flush() error { return e.w.Flush() }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder reads frames from r through an internal buffered reader,
// reusing one payload buffer across frames and interning repeated
// short strings (model and tenant names): steady-state decoding
// allocates nothing. Not safe for concurrent use.
type Decoder struct {
	r       *bufio.Reader
	payload []byte
	names   map[string]string
	// hdr is header scratch; a field rather than a stack array so the
	// io.Reader call does not force a heap escape per frame.
	hdr [headerSize]byte
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{
		r:       bufio.NewReaderSize(r, 32<<10),
		payload: make([]byte, 0, 256),
		names:   make(map[string]string),
	}
}

// Buffered reports how many bytes are already readable without
// touching the connection — the transport's batching signal: frames
// readable now belong to the same scheduling quantum.
func (d *Decoder) Buffered() int { return d.r.Buffered() }

// FrameReady reports whether a whole frame is already buffered, so
// that Next returns it without touching the connection. It peeks the
// length header and never reads.
func (d *Decoder) FrameReady() bool {
	if d.r.Buffered() < headerSize {
		return false
	}
	hdr, _ := d.r.Peek(headerSize)
	n := binary.LittleEndian.Uint32(hdr[:4])
	return n <= MaxFrameSize && d.r.Buffered() >= headerSize+int(n)
}

// Next reads one frame and returns its type and payload. The payload
// slice is owned by the decoder and valid only until the next call.
// io.EOF at a frame boundary surfaces as io.EOF; a partial frame is
// io.ErrUnexpectedEOF.
func (d *Decoder) Next() (uint8, []byte, error) {
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(d.payload) < int(n) {
		d.payload = make([]byte, n)
	}
	p := d.payload[:n]
	if _, err := io.ReadFull(d.r, p); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return hdr[4], p, nil
}

// DecodeInfer parses a TypeInfer payload into f. Model and tenant
// strings are interned, so repeated names do not allocate.
func (d *Decoder) DecodeInfer(p []byte, f *InferFrame) error {
	c := cursor{p: p}
	f.Corr = c.uvarint()
	f.SLO = c.varint()
	f.Priority = c.varint()
	f.MaxBatch = c.varint()
	f.Model = d.intern(c.bytes())
	f.Tenant = d.intern(c.bytes())
	return c.finish()
}

// DecodeResult parses a TypeResult payload into f.
func DecodeResult(p []byte, f *ResultFrame) error {
	c := cursor{p: p}
	f.Corr = c.uvarint()
	f.RequestID = c.uvarint()
	flags := c.byte()
	f.Reason = c.byte()
	f.Latency = c.varint()
	f.Batch = c.uvarint()
	f.Success = flags&flagSuccess != 0
	f.ColdStart = flags&flagColdStart != 0
	return c.finish()
}

// DecodeError parses a TypeError payload into f. Messages are not
// interned (they are unbounded and off the steady-state path).
func DecodeError(p []byte, f *ErrorFrame) error {
	c := cursor{p: p}
	f.Corr = c.uvarint()
	f.Code = c.byte()
	f.Message = string(c.bytes())
	return c.finish()
}

// DecodeCorr parses a payload that is a bare correlation ID
// (TypeModels).
func DecodeCorr(p []byte) (uint64, error) {
	c := cursor{p: p}
	corr := c.uvarint()
	return corr, c.finish()
}

// DecodeModelList parses a TypeModelList payload into f, reusing
// f.Models' backing array.
func (d *Decoder) DecodeModelList(p []byte, f *ModelListFrame) error {
	c := cursor{p: p}
	f.Corr = c.uvarint()
	n := c.uvarint()
	if n > uint64(len(c.p)) { // each model costs ≥1 byte of payload
		return ErrMalformedFrame
	}
	f.Models = f.Models[:0]
	for i := uint64(0); i < n; i++ {
		f.Models = append(f.Models, d.intern(c.bytes()))
	}
	return c.finish()
}

func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInternEntries && len(s) <= maxInternLen {
		d.names[s] = s
	}
	return s
}

// cursor walks a payload; the first malformed field poisons it so
// decode functions read all fields unconditionally and check once.
type cursor struct {
	p   []byte
	bad bool
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *cursor) varint() int64 {
	v, n := binary.Varint(c.p)
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *cursor) byte() uint8 {
	if len(c.p) == 0 {
		c.bad = true
		return 0
	}
	b := c.p[0]
	c.p = c.p[1:]
	return b
}

func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.p)) {
		c.bad = true
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

// finish rejects poisoned cursors and trailing junk: a frame must
// parse exactly.
func (c *cursor) finish() error {
	if c.bad || len(c.p) != 0 {
		return ErrMalformedFrame
	}
	return nil
}
