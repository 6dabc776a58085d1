package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy selects when appended frames are forced to stable
// storage. Every append reaches the kernel in one write(2) regardless —
// process death (SIGKILL) cannot lose or tear an acknowledged frame;
// the policy only governs machine-crash durability.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs on a background cadence
	// (Options.FsyncEvery) and at rotation/close.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs after every flushed append batch — full
	// machine-crash durability at a goodput cost (see EXPERIMENTS.md).
	FsyncAlways
	// FsyncNever fsyncs only at rotation and close.
	FsyncNever
)

// String implements fmt.Stringer (flag values round-trip through it).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// MarshalText encodes p as its String form.
func (p FsyncPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses what MarshalText wrote.
func (p *FsyncPolicy) UnmarshalText(b []byte) (err error) {
	*p, err = ParseFsyncPolicy(string(b))
	return err
}

// ParseFsyncPolicy parses the -journal-fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want interval, always or never)", s)
}

// Retention selects how much history an epoch keeps on disk.
type Retention int

const (
	// RetainAll (the default) keeps every segment — required for
	// bit-exact replay of the epoch, which must start from genesis.
	RetainAll Retention = iota
	// RetainToSnapshot prunes segments wholly covered by the latest
	// durable snapshot. Recovery stays exact; deterministic replay of
	// this epoch is forfeited (cmd/clockwork-replay needs the genesis
	// chain).
	RetainToSnapshot
)

// File naming within a journal directory. The segment suffix is the
// sequence number of its first record, so the chain orders and
// validates by name alone; the snapshot suffix is the seq of its
// marker record (the first seq NOT covered by the snapshot file).
const (
	segPattern  = "epoch-%06d-seg-%012d.wal"
	snapPattern = "epoch-%06d-snap-%012d.snap"
)

// writer owns the on-disk epoch: the open segment, the append buffer,
// rotation and pruning. All methods are mutex-guarded — appends come
// from the engine goroutine, fsyncs from the background syncer, Close
// from the daemon's shutdown path. A write error latches the writer
// into a failed state (visible in Status); later appends are dropped
// rather than blocking the serving path.
type writer struct {
	mu       sync.Mutex
	dir      string
	epoch    int
	opts     Options
	f        *os.File
	segStart uint64   // first seq in the open segment
	starts   []uint64 // start seq of every live segment, ascending
	nextSeq  uint64
	segBytes int64
	pending  []byte // encoded frames not yet written to the kernel
	scratch  []byte
	dirty    bool // bytes written since the last fsync
	err      error

	// Status mirrors, readable without the mutex.
	bytesTotal  atomic.Int64
	unsyncedPub atomic.Int64
	records     atomic.Uint64
	infers      atomic.Uint64
	acks        atomic.Uint64
	segments    atomic.Int64
	lastSync    atomic.Int64 // unix nanos of the last completed fsync
	failed      atomic.Bool
}

func newWriter(dir string, epoch int, opts Options) (*writer, error) {
	w := &writer{dir: dir, epoch: epoch, opts: opts, nextSeq: 0}
	if err := w.openSegmentLocked(0); err != nil {
		return nil, err
	}
	w.lastSync.Store(time.Now().UnixNano())
	return w, nil
}

func (w *writer) segPath(start uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf(segPattern, w.epoch, start))
}

func (w *writer) snapPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf(snapPattern, w.epoch, seq))
}

func (w *writer) openSegmentLocked(start uint64) error {
	f, err := os.OpenFile(w.segPath(start), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.segStart = start
	w.segBytes = 0
	w.starts = append(w.starts, start)
	w.segments.Store(int64(len(w.starts)))
	return nil
}

func (w *writer) failLocked(err error) {
	if w.err == nil {
		w.err = err
		w.failed.Store(true)
	}
}

// append encodes r (assigning its Seq), stamps it into the pending
// buffer, and — when flush is set — pushes the buffer to the kernel.
// Mutating records flush; per-item inference records buffer until the
// injected closure's end (Recorder.Commit) so a coalesced batch costs
// one write(2).
func (w *writer) append(r *Record, flush bool) (seq uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	r.Seq = w.nextSeq
	w.nextSeq++
	w.scratch = appendRecord(w.scratch[:0], r)
	if len(w.scratch) > MaxRecordSize {
		err := fmt.Errorf("journal: record type %d encodes to %d bytes (max %d)", r.Type, len(w.scratch), MaxRecordSize)
		w.failLocked(err)
		return 0, err
	}
	w.pending = appendFrame(w.pending, w.scratch)
	w.records.Add(1)
	switch r.Type {
	case recInfer:
		w.infers.Add(1)
	case recAck:
		w.acks.Add(1)
	}
	if flush {
		if err := w.flushLocked(); err != nil {
			return 0, err
		}
		if w.opts.Fsync == FsyncAlways {
			if err := w.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return r.Seq, nil
}

// flushLocked writes the pending buffer to the open segment and rotates
// when the segment exceeds the size bound.
func (w *writer) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.pending) == 0 {
		return nil
	}
	n, err := w.f.Write(w.pending)
	w.segBytes += int64(n)
	w.bytesTotal.Add(int64(n))
	w.pending = w.pending[:0]
	w.dirty = true
	w.unsyncedPub.Add(int64(n))
	if err != nil {
		w.failLocked(fmt.Errorf("journal: segment write: %w", err))
		return w.err
	}
	if w.segBytes >= w.opts.MaxSegmentBytes {
		return w.rotateLocked()
	}
	return nil
}

func (w *writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.failLocked(fmt.Errorf("journal: segment close: %w", err))
		return w.err
	}
	if err := w.openSegmentLocked(w.nextSeq); err != nil {
		w.failLocked(fmt.Errorf("journal: segment open: %w", err))
		return w.err
	}
	return nil
}

func (w *writer) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.failLocked(fmt.Errorf("journal: fsync: %w", err))
		return w.err
	}
	w.dirty = false
	w.unsyncedPub.Store(0)
	w.lastSync.Store(time.Now().UnixNano())
	return nil
}

// flush pushes buffered frames to the kernel (the ack-durability
// barrier); sync additionally forces them to stable storage.
func (w *writer) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *writer) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return err
	}
	return w.syncLocked()
}

// writeSnapshotFile durably writes one state frame to the snapshot file
// named for seq (written before the recSnapshot marker is appended, so
// a marker's presence implies its file is complete on disk).
func (w *writer) writeSnapshotFile(seq uint64, payload []byte) (path string, size int64, err error) {
	path = w.snapPath(seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", 0, err
	}
	framed := appendFrame(nil, payload)
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, err
	}
	return path, int64(len(framed)), nil
}

// nextSeqLocked exposes the seq the next append will take — the name a
// snapshot captured now must carry.
func (w *writer) peekNextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// pruneTo removes segments every record of which precedes seq (the
// latest snapshot's marker). The open segment and the segment
// containing seq always survive.
func (w *writer) pruneTo(seq uint64) (removed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.starts) >= 2 && w.starts[1] <= seq {
		path := w.segPath(w.starts[0])
		if err := os.Remove(path); err != nil {
			break
		}
		w.starts = w.starts[1:]
		removed++
	}
	w.segments.Store(int64(len(w.starts)))
	return removed
}

func (w *writer) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	flushErr := w.flushLocked()
	syncErr := w.syncLocked()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
