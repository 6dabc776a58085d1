package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// TestSmoke runs all four workloads at 1/50 size, end-to-end and traced,
// and asserts only what does not depend on time: every check passed,
// nothing failed, and every metric BENCHMARK.json declares came out.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { hostBurst = d }(hostBurst)
	hostBurst = time.Millisecond
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w, traced), func(t *testing.T) {
				rep, err := run(runConfig{Workload: w, Seed: 7, Seconds: 24.0 / 50, Size: 1.0 / 50, Traced: traced}, man)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, rep.problems)
				}
				want := man.EndToEnd
				if traced {
					want = man.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(want))
				}
			})
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {-5, 10}, {120, 50}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// Five known values out of a population of ten: the median sits
	// between ranks 4 and 5 — one known, one not — so it is +Inf.
	if got := percentileOf(s, 10, 40); math.Abs(got-46) > 1e-9 {
		t.Errorf("percentileOf p40 = %v, want 46", got)
	}
	if got := percentileOf(s, 10, 50); !math.IsInf(got, 1) {
		t.Errorf("percentileOf p50 = %v, want +Inf", got)
	}
	l := latSet{ok: []float64{3, 1, 2}, missed: 1}
	if got := l.pct(50); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("latSet p50 = %v, want 2.5", got)
	}
	if got := l.pct(100); !math.IsInf(got, 1) {
		t.Errorf("latSet p100 = %v, want +Inf (the miss)", got)
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(v, n=4) of
// Python 3: [1..10] gives [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16}) // Python: [1.5, 4.0, 12.0]
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// parent [0,100]; children [10,30], [20,50] (overlapping: union 40)
	// and [90,120] (clipped to the parent: 10). Self = 100 − 50.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
	}
	tot := selfTimes(spans, 0)
	if p := tot["parent"]; p.Count != 1 || p.Total != 100 || p.Self != 50 {
		t.Errorf("parent = %+v, want total 100 self 50", p)
	}
	if c := tot["child"]; c.Count != 3 || c.Total != 80 || c.Self != 74 {
		t.Errorf("child = %+v, want count 3 total 80 self 74", c)
	}
	if under := selfTimes(spans, 2); len(under) != 1 || under["leaf"].Total != 6 {
		t.Errorf("under span 2 = %+v, want only leaf with total 6", under)
	}

	log := newSpanLog()
	tr := log.track(4)
	root := tr.begin("root", 0)
	kid := tr.begin("kid", root)
	tr.end(kid)
	tr.end(root)
	all := log.all() // one track: in recording order
	if len(all) != 2 || all[0].Name != "root" || all[1].Parent != all[0].ID || all[1].End < all[1].Start || all[0].End < all[1].End {
		t.Errorf("recorded spans = %+v", all)
	}
	var none *tracer
	if tk := none.track(1); tk.begin("x", 0) != 0 {
		t.Error("a nil tracer's track must be a no-op")
	}
}

func TestCountingConn(t *testing.T) {
	inner := newPipeListener()
	counts := &wireCounts{}
	ln := countingListener{Listener: inner, counts: counts}
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil { // one Read: the pipe hands over whole writes
			done <- err
			return
		}
		_, err = c.Write([]byte("pong!!"))
		done <- err
	}()
	client, err := inner.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping!")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, make([]byte, 6)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := counts.snapshot(), (wireSnapshot{Reads: 1, Writes: 1, BytesIn: 5, BytesOut: 6}); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	inner.Close()
	if _, err := ln.Accept(); err != net.ErrClosed {
		t.Errorf("Accept after Close = %v, want net.ErrClosed", err)
	}
}
