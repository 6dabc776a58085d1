package core

import (
	"reflect"
	"testing"
	"time"

	"clockwork/internal/modelzoo"
)

// sumOutcomes adds b into a field by field.
func sumOutcomes(a *Outcomes, b Outcomes) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(av.Field(i).Uint() + bv.Field(i).Uint())
	}
}

// TestOutcomeLedgersAgree drives a two-group cluster through every
// failure reason, with a tenant on every request, and checks that the
// three ledgers count the same outcomes: the global total equals the
// sum over models and over tenants, and every outcome was observed once
// by the latency histogram.
func TestOutcomeLedgersAgree(t *testing.T) {
	cl := testCluster(t, ClusterConfig{Workers: 2, GPUsPerWorker: 1, Shards: 2})
	names, err := cl.RegisterCopies("m", modelzoo.ResNet50(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"acme", "globex", "initech"}
	seen := make(map[Reason]int)
	sink := ResultFunc(func(r Result) { seen[r.Reason]++ })
	n := 0
	submit := func(model string, slo time.Duration) {
		n++
		if err := cl.Submit(SubmitSpec{Model: model, SLO: slo, Tenant: tenants[n%len(tenants)]}, sink); err != nil {
			t.Fatal(err)
		}
	}

	// Steady load with external stalls (rejections and timeouts) and
	// unmeetable SLOs (admission cancels).
	for i := 0; i < 400; i++ {
		submit(names[i%3], 30*time.Millisecond)
		if i%20 == 0 {
			submit(names[i%3], time.Millisecond)
		}
		if i%50 == 0 {
			_ = cl.InjectDisturbance(i/50%2, 0, 20*time.Millisecond)
		}
		cl.RunFor(2 * time.Millisecond)
	}
	cl.RunFor(time.Second)

	// A request in transit to a model unregistered under it.
	submit(names[3], time.Second)
	if err := cl.UnregisterModel(names[3]); err != nil {
		t.Fatal(err)
	}
	cl.RunFor(time.Second)

	// Work in flight on a worker that fails.
	for i := 0; i < 16; i++ {
		submit(names[i%3], time.Second)
	}
	cl.RunFor(2 * time.Millisecond)
	for id := range cl.Workers {
		_ = cl.FailWorker(id)
	}
	cl.RunFor(time.Second)

	for _, r := range []Reason{ReasonNone, ReasonCancelled, ReasonRejected, ReasonTimeout, ReasonWorkerFailed, ReasonUnregistered} {
		if seen[r] == 0 {
			t.Errorf("no outcome with reason %q (seen %v)", r, seen)
		}
	}

	m := cl.Metrics
	total := m.Total
	if total.Requests != uint64(n) {
		t.Fatalf("Total.Requests = %d, submitted %d", total.Requests, n)
	}
	if got := m.LatencyAll.Count(); got != total.Requests {
		t.Fatalf("LatencyAll.Count() = %d, Total.Requests = %d", got, total.Requests)
	}
	var models, byTenant Outcomes
	for _, mo := range m.perModel {
		if mo != nil {
			sumOutcomes(&models, mo.Outcomes)
		}
	}
	for _, to := range m.perTenant {
		sumOutcomes(&byTenant, *to)
	}
	for _, c := range []struct {
		name string
		sum  Outcomes
	}{{"models", models}, {"tenants", byTenant}} {
		if c.sum != total {
			t.Errorf("sum over %s = %+v, Total = %+v", c.name, c.sum, total)
		}
	}
	if total.Succeeded+total.Failed != total.Requests ||
		total.WithinSLO+total.SLOMisses != total.Succeeded ||
		total.Cancelled+total.Rejected+total.TimedOut+total.WorkerLost != total.Failed {
		t.Errorf("Total does not partition its requests: %+v", total)
	}
}
