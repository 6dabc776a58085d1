package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the system
// under test. Spans are recorded from outside — around the public entry
// point — so the program itself carries no probes. Start and End are
// nanoseconds since the log's origin; Parent is the ID of the span that
// caused this one (0 for a root); spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends. Each recording
// goroutine owns a track, so the hot path takes no lock. A nil log (an
// untraced run) hands out nil tracks, whose methods are no-ops.
type spanLog struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	tracks []*spanTrack
}

type spanTrack struct {
	log   *spanLog
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// track returns a new single-goroutine recording track with room for
// capacity spans (so a measured phase does not grow the slice).
func (l *spanLog) track(capacity int) *spanTrack {
	if l == nil {
		return nil
	}
	t := &spanTrack{log: l, spans: make([]span, 0, capacity)}
	l.mu.Lock()
	l.tracks = append(l.tracks, t)
	l.mu.Unlock()
	return t
}

// begin opens a span and returns its ID, to be passed to end and used
// as the parent of the spans it causes.
func (t *spanTrack) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	id := t.log.nextID.Add(1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.log.origin))})
	return id
}

// end closes the span begin returned. Spans close in LIFO order per
// track, so the search from the tail is one or two steps.
func (t *spanTrack) end(id int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.log.origin))
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = now
			return
		}
	}
}

// add records a finished leaf span from two instants the caller already
// took (the load generator times every request anyway).
func (t *spanTrack) add(name string, parent int64, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: t.log.nextID.Add(1), Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.log.origin)), End: int64(end.Sub(t.log.origin)),
	})
}

// all merges the tracks into one list, in no particular order.
func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, t := range l.tracks {
		out = append(out, t.spans...)
	}
	return out
}

// spanTotals is the per-name roll-up of a span list.
type spanTotals struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // sum of durations minus what child spans cover
}

// selfTimes rolls spans up by name. A span's self time is its duration
// minus the part of its interval that its direct children cover;
// overlapping children (concurrent callers under one phase span) are
// counted once, as the union of their intervals. A non-zero under keeps
// only the direct children of that span — one phase's calls.
func selfTimes(spans []span, under int64) map[string]spanTotals {
	// Only the children of spans that will be rolled up are kept: a live
	// round has a million leaf spans under its phases and a dozen under
	// set-up.
	rolled := make(map[int64]bool)
	for _, s := range spans {
		if under == 0 || s.Parent == under {
			rolled[s.ID] = true
		}
	}
	children := make(map[int64][]span)
	for _, s := range spans {
		if rolled[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		if !rolled[s.ID] {
			continue
		}
		dur := max(s.End-s.Start, 0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(dur)
		t.Self += time.Duration(dur - covered)
		out[s.Name] = t
	}
	return out
}

// writeTo writes one JSON object per span, ordered by start.
func (l *spanLog) writeTo(path string) error {
	spans := l.all()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
