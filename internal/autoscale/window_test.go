package autoscale

import (
	"testing"

	"clockwork/trace"
)

func TestWindow(t *testing.T) {
	flight := trace.New(trace.Options{SampleRate: -1})
	w := NewWindow(4, flight)

	// Every offer is either admitted or shed, and each shed reaches the
	// flight recorder.
	admitted := 0
	for i := 0; i < 10; i++ {
		if w.Admit() {
			admitted++
		}
	}
	if admitted != 4 || w.InFlight() != 4 || admitted+int(w.Shed()) != 10 {
		t.Fatalf("10 offers at limit 4: admitted %d, in flight %d, shed %d", admitted, w.InFlight(), w.Shed())
	}
	if got := flight.Aggregate().Stats.Shed; got != w.Shed() {
		t.Fatalf("flight recorder counted %d sheds, window %d", got, w.Shed())
	}

	// A limit below the count evicts nothing and admits nothing until
	// releases bring the count under it.
	w.SetLimit(2)
	if w.InFlight() != 4 || w.Limit() != 2 {
		t.Fatalf("SetLimit(2) at 4 in flight: in flight %d, limit %d", w.InFlight(), w.Limit())
	}
	for _, want := range []bool{false, false, false} {
		if w.Admit() != want {
			t.Fatalf("admit at %d in flight, limit 2: want %v", w.InFlight(), want)
		}
		w.Release()
	}
	// Three releases took the count 4 → 1, under the limit again.
	if w.InFlight() != 1 || !w.Admit() || w.Admit() {
		t.Fatalf("after releases: in flight %d, want one more admit then a shed", w.InFlight())
	}

	// TakeShed drains the period count, not the lifetime count.
	if got := w.TakeShed(); got != 10 {
		t.Fatalf("TakeShed = %d, want 10 (6 at limit 4, 4 at limit 2)", got)
	}
	if got := w.TakeShed(); got != 0 {
		t.Fatalf("second TakeShed = %d, want 0", got)
	}
	if w.Shed() != 10 {
		t.Fatalf("lifetime Shed = %d after TakeShed, want 10", w.Shed())
	}

	// Limit 0 is unbounded.
	w.SetLimit(0)
	for i := 0; i < 100; i++ {
		if !w.Admit() {
			t.Fatalf("unbounded window shed at %d in flight", w.InFlight())
		}
	}

	// A release without its admit panics.
	for w.InFlight() > 0 {
		w.Release()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release on an empty window did not panic")
		}
	}()
	w.Release()
}

func TestClampWindow(t *testing.T) {
	c := New(Config{MinWindow: 8, MaxWindow: 64})
	for _, tc := range []struct{ in, want int }{
		{0, 64}, {-1, 64}, {1, 8}, {8, 8}, {32, 32}, {64, 64}, {1000, 64},
	} {
		if got := c.ClampWindow(tc.in); got != tc.want {
			t.Errorf("ClampWindow(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
