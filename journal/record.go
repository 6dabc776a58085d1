package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"clockwork"
)

// Wire format. Every journal entry is one frame:
//
//	u32le  payload length
//	u32le  CRC32-C of the payload
//	bytes  payload
//
// and every payload is one record:
//
//	u8      type
//	uvarint seq   — position in the epoch's append order, genesis = 0
//	uvarint step  — engine step the operation executed as (see
//	                System.EngineSteps; 0 for records stamped off-engine)
//	varint  vt    — virtual instant, nanoseconds
//	bytes   body  — per-type fields, below
//
// The frame grammar matches the serve/stream transport's (length prefix
// bounded by a max size, varint-encoded fields, strings as uvarint
// length + bytes), with a CRC added because a file on disk — unlike a
// TCP stream — can be torn mid-frame by a crash.

// Record types.
const (
	// recGenesis opens an epoch: the full control-plane state the rest
	// of the epoch is relative to. The same payload shape is written to
	// standalone snapshot files.
	recGenesis byte = 1
	// recInfer is one externally-submitted inference request. A batch
	// injected in one engine turn records one recInfer per request, all
	// sharing the step stamp.
	recInfer byte = 2
	// recAck is the acknowledged outcome of a recInfer, appended on the
	// engine turn the completion callback ran — before the response
	// could reach the client.
	recAck byte = 3
	// recRegister … recRebalance and recAutoscale each carry one Op
	// (see op.go): a Register, and the operator's worker and rebalance
	// mutations.
	recRegister    byte = 4
	recAddWorker   byte = 5
	recDrainWorker byte = 6
	recFailWorker  byte = 7
	recRebalance   byte = 8
	// recRead is a read-only barrier of a version-1 epoch, journaled
	// because it took a step. It has no Op, and no build writes it now.
	recRead byte = 9
	// recSnapshot marks that a snapshot file (named for this record's
	// seq) was durably written before this record was appended.
	recSnapshot byte = 10
	// recAutoscale is one closed-loop autoscaler decision that moved
	// something: the admission window to run with, worker additions, a
	// drain target, a rebalance pass. The decision — not the signals it
	// was derived from — is what replay re-applies, so a recorded run
	// reproduces bit-for-bit however the wall clock paced the control
	// loop. A tick that moved nothing records nothing.
	recAutoscale byte = 11
)

// MaxRecordSize bounds one frame's payload, mirroring the stream
// transport's frame bound. A genesis carrying a large registry is the
// only record that approaches it.
const MaxRecordSize = 1 << 20

// frameHeaderSize is the length + CRC prefix.
const frameHeaderSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTornFrame means the bytes end mid-frame — the
// expected shape of a crashed tail; ErrCorruptFrame means a whole frame
// failed its checksum or grammar.
var (
	ErrTornFrame    = errors.New("journal: torn frame at end of segment")
	ErrCorruptFrame = errors.New("journal: corrupt frame")
)

// Record is the decoded form of one journal entry. It is a tagged
// union: Type selects which of the per-type field groups is meaningful.
// A record that carries an Op has the Op's own record type.
type Record struct {
	Type byte
	Seq  uint64
	Step uint64
	VT   time.Duration

	// recInfer. Shard is the submission's shard argument: always
	// written as 0 (submission ignores it), and kept so every journal
	// keeps its layout.
	Shard    int
	Corr     uint64
	Model    string
	SLO      time.Duration
	Priority int
	Tenant   string
	MaxBatch int

	// recAck (Corr identifies the recInfer it answers)
	RequestID uint64
	Success   bool
	Reason    uint8
	Latency   time.Duration
	Batch     int
	ColdStart bool

	// recRegister … recAutoscale
	Op Op

	// recGenesis
	State *State
}

// IsInfer and IsAck classify a record for external consumers (tests,
// tooling reading EpochData.Records) without exporting the whole type
// enumeration.
func (r *Record) IsInfer() bool { return r.Type == recInfer }
func (r *Record) IsAck() bool   { return r.Type == recAck }

// ---- encoding ----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendRecord encodes r as a bare payload (no frame header).
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, r.Type)
	b = appendUvarint(b, r.Seq)
	b = appendUvarint(b, r.Step)
	b = appendVarint(b, int64(r.VT))
	switch r.Type {
	case recGenesis:
		b = appendState(b, r.State)
	case recInfer:
		b = appendUvarint(b, uint64(r.Shard))
		b = appendUvarint(b, r.Corr)
		b = appendString(b, r.Model)
		b = appendVarint(b, int64(r.SLO))
		b = appendVarint(b, int64(r.Priority))
		b = appendString(b, r.Tenant)
		b = appendVarint(b, int64(r.MaxBatch))
	case recAck:
		b = appendUvarint(b, r.Corr)
		b = appendUvarint(b, r.RequestID)
		b = appendBool(b, r.Success)
		b = append(b, r.Reason)
		b = appendVarint(b, int64(r.Latency))
		b = appendVarint(b, int64(r.Batch))
		b = appendBool(b, r.ColdStart)
	case recSnapshot, recRead:
		// no body
	default:
		b = appendOp(b, r.Op)
	}
	return b
}

// appendOp encodes an op record's body.
func appendOp(b []byte, op Op) []byte {
	switch o := op.(type) {
	case Register:
		b = appendString(b, o.Instance)
		b = appendString(b, o.Zoo)
		b = appendUvarint(b, uint64(o.Copies))
	case DrainWorker:
		b = appendUvarint(b, uint64(o.ID))
	case FailWorker:
		b = appendUvarint(b, uint64(o.ID))
	case Autoscale:
		b = appendVarint(b, int64(o.Window))
		b = appendUvarint(b, uint64(o.AddWorkers))
		b = appendVarint(b, int64(o.Drain))
		b = appendBool(b, o.Rebalance)
	case AddWorker, Rebalance:
		// no body
	default:
		panic(fmt.Sprintf("journal: encode of unknown op %T", op))
	}
	return b
}

// appendFrame wraps an encoded payload in the length + CRC header.
func appendFrame(b, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// ---- decoding ----

// cursor mirrors the stream transport's decode idiom: reads poison the
// cursor on underflow instead of forcing an error check per field.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) fail() {
	c.bad = true
	c.off = len(c.b)
}

func (c *cursor) u8() byte {
	if c.bad || c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.bad {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) str() string {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)-c.off) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

func (c *cursor) bool() bool { return c.u8() != 0 }

// decodeRecord parses one payload into r.
func decodeRecord(payload []byte, r *Record) error {
	c := &cursor{b: payload}
	*r = Record{}
	r.Type = c.u8()
	r.Seq = c.uvarint()
	r.Step = c.uvarint()
	r.VT = time.Duration(c.varint())
	switch r.Type {
	case recGenesis:
		st, err := decodeState(c)
		if err != nil {
			return err
		}
		r.State = st
	case recInfer:
		r.Shard = int(c.uvarint())
		r.Corr = c.uvarint()
		r.Model = c.str()
		r.SLO = time.Duration(c.varint())
		r.Priority = int(c.varint())
		r.Tenant = c.str()
		r.MaxBatch = int(c.varint())
	case recAck:
		r.Corr = c.uvarint()
		r.RequestID = c.uvarint()
		r.Success = c.bool()
		r.Reason = c.u8()
		r.Latency = time.Duration(c.varint())
		r.Batch = int(c.varint())
		r.ColdStart = c.bool()
	case recRegister:
		r.Op = Register{Instance: c.str(), Zoo: c.str(), Copies: int(c.uvarint())}
	case recAddWorker:
		r.Op = AddWorker{}
	case recDrainWorker:
		r.Op = DrainWorker{ID: int(c.uvarint())}
	case recFailWorker:
		r.Op = FailWorker{ID: int(c.uvarint())}
	case recRebalance:
		r.Op = Rebalance{}
	case recAutoscale:
		r.Op = Autoscale{Window: int(c.varint()), AddWorkers: int(c.uvarint()), Drain: int(c.varint()), Rebalance: c.bool()}
	case recSnapshot, recRead:
		// no body
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrCorruptFrame, r.Type)
	}
	if c.bad {
		return fmt.Errorf("%w: truncated record body (type %d)", ErrCorruptFrame, r.Type)
	}
	if c.off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes after record (type %d)", ErrCorruptFrame, len(payload)-c.off, r.Type)
	}
	return nil
}

// readFrame parses the frame starting at off in data and returns its
// payload and the offset of the next frame. ErrTornFrame means data
// ends mid-frame (the normal crashed-tail shape); ErrCorruptFrame means
// the header or checksum is invalid.
func readFrame(data []byte, off int) (payload []byte, next int, err error) {
	if len(data)-off < frameHeaderSize {
		return nil, off, ErrTornFrame
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	if n > MaxRecordSize {
		return nil, off, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorruptFrame, n, MaxRecordSize)
	}
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	body := data[off+frameHeaderSize:]
	if uint32(len(body)) < n {
		return nil, off, ErrTornFrame
	}
	payload = body[:n]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, off, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return payload, off + frameHeaderSize + int(n), nil
}

// ---- state (genesis / snapshot payload body) ----

// stateVersion guards the state encoding; bump on layout change. Version
// 2 keeps version 1's layout: its epochs' barriers took no engine step.
const stateVersion = 2

// ModelState is one registered instance in a snapshot.
type ModelState struct {
	// Instance is the registered name; Zoo the catalogue model it was
	// created from (re-registration re-derives weights and seeds).
	Instance string
	Zoo      string
	// Shard is a retired slot: builds with a sharded control plane
	// recorded the owning shard here. It is written as 0 and ignored on
	// rebuild (a model's placement group is a hash of its name).
	Shard int
	// Profile carries the measured estimator windows (may be empty).
	Profile []clockwork.ProfileEntry
}

// State is the full control-plane state an epoch is relative to: the
// system configuration, the serving options, the model registry with
// placements and learned profiles, and worker lifecycle states. It is
// everything needed to rebuild a System that schedules exactly like the
// captured one.
type State struct {
	Config      clockwork.Config
	Speed       float64
	MaxInFlight int

	// PriorRequests/PriorAcked carry cumulative request accounting
	// across epochs, so recovery can report lifetime totals.
	PriorRequests uint64
	PriorAcked    uint64

	Models  []ModelState
	Workers []uint8 // index = worker ID; values are the worker* constants below

	// Step and VT stamp when the capture ran (informational; a rebuilt
	// engine restarts from zero — that is why recovery opens a new
	// epoch).
	Step uint64
	VT   time.Duration

	legacy bool // decoded from version 1, whose barriers took a step
}

// Worker lifecycle encoding in State.Workers.
const (
	workerActive   uint8 = 0
	workerDraining uint8 = 1
	workerFailed   uint8 = 2
)

func appendState(b []byte, st *State) []byte {
	b = append(b, stateVersion)
	cfg := st.Config
	b = appendUvarint(b, uint64(cfg.Workers))
	b = appendUvarint(b, uint64(cfg.GPUsPerWorker))
	b = appendUvarint(b, uint64(cfg.Shards))
	b = appendVarint(b, 0) // retired rebalance-interval slot, kept for the layout
	b = appendVarint(b, 0) // retired skew-bound slot, kept for the layout
	b = appendString(b, string(cfg.Policy))
	b = appendUvarint(b, cfg.Seed)
	b = appendVarint(b, int64(cfg.Lookahead))
	b = appendVarint(b, int64(cfg.ProfileWindow))
	b = appendVarint(b, cfg.PageCacheBytes)
	b = appendBool(b, cfg.ExactTiming)
	b = appendVarint(b, int64(cfg.MetricsInterval))
	b = appendBool(b, cfg.ZeroLengthInputs)

	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(st.Speed))
	b = appendVarint(b, int64(st.MaxInFlight))
	b = appendUvarint(b, st.PriorRequests)
	b = appendUvarint(b, st.PriorAcked)

	b = appendUvarint(b, uint64(len(st.Models)))
	for _, m := range st.Models {
		b = appendString(b, m.Instance)
		b = appendString(b, m.Zoo)
		b = appendUvarint(b, uint64(m.Shard))
		b = appendUvarint(b, uint64(len(m.Profile)))
		for _, p := range m.Profile {
			b = appendString(b, p.Op)
			b = appendVarint(b, int64(p.Batch))
			b = appendUvarint(b, uint64(len(p.Window)))
			for _, d := range p.Window {
				b = appendVarint(b, int64(d))
			}
		}
	}
	b = appendUvarint(b, uint64(len(st.Workers)))
	b = append(b, st.Workers...)
	b = appendUvarint(b, st.Step)
	b = appendVarint(b, int64(st.VT))
	return b
}

func decodeState(c *cursor) (*State, error) {
	v := c.u8()
	if v != stateVersion && v != 1 {
		if c.bad {
			return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
		}
		return nil, fmt.Errorf("%w: unknown state version %d", ErrCorruptFrame, v)
	}
	st := &State{legacy: v == 1}
	st.Config.Workers = int(c.uvarint())
	st.Config.GPUsPerWorker = int(c.uvarint())
	st.Config.Shards = int(c.uvarint())
	c.varint() // retired rebalance-interval slot
	c.varint() // retired skew-bound slot
	st.Config.Policy = clockwork.Policy(c.str())
	st.Config.Seed = c.uvarint()
	st.Config.Lookahead = time.Duration(c.varint())
	st.Config.ProfileWindow = int(c.varint())
	st.Config.PageCacheBytes = c.varint()
	st.Config.ExactTiming = c.bool()
	st.Config.MetricsInterval = time.Duration(c.varint())
	st.Config.ZeroLengthInputs = c.bool()

	if c.bad || len(c.b)-c.off < 8 {
		return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
	}
	st.Speed = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	st.MaxInFlight = int(c.varint())
	st.PriorRequests = c.uvarint()
	st.PriorAcked = c.uvarint()

	nm := c.uvarint()
	if c.bad || nm > MaxRecordSize {
		return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
	}
	st.Models = make([]ModelState, 0, nm)
	for i := uint64(0); i < nm && !c.bad; i++ {
		var m ModelState
		m.Instance = c.str()
		m.Zoo = c.str()
		m.Shard = int(c.uvarint())
		np := c.uvarint()
		if c.bad || np > MaxRecordSize {
			return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
		}
		for j := uint64(0); j < np && !c.bad; j++ {
			var p clockwork.ProfileEntry
			p.Op = c.str()
			p.Batch = int(c.varint())
			nw := c.uvarint()
			if c.bad || nw > MaxRecordSize {
				return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
			}
			for k := uint64(0); k < nw && !c.bad; k++ {
				p.Window = append(p.Window, time.Duration(c.varint()))
			}
			m.Profile = append(m.Profile, p)
		}
		st.Models = append(st.Models, m)
	}
	nw := c.uvarint()
	if c.bad || nw > uint64(len(c.b)-c.off) {
		return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
	}
	st.Workers = append(st.Workers, c.b[c.off:c.off+int(nw)]...)
	c.off += int(nw)
	st.Step = c.uvarint()
	st.VT = time.Duration(c.varint())
	if c.bad {
		return nil, fmt.Errorf("%w: truncated state", ErrCorruptFrame)
	}
	return st, nil
}
