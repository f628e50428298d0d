package backoff_test

import (
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/backoff"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/sim"
)

func TestCostObserverIdleSlot(t *testing.T) {
	o := backoff.NewCostObserver(64, 1)
	o.OnSlot(0, nil)
	c := o.Snapshot()
	if c.Slots != 1 || c.MeanWindow != 1 || c.RequiredWindow != 1 {
		t.Errorf("idle slot cost = %+v, want 1 micro-slot", c)
	}
}

func TestCostObserverContendedSlot(t *testing.T) {
	o := backoff.NewCostObserver(64, 1)
	o.OnSlot(0, []sim.ChannelOutcome{
		{Channel: 0, Broadcasters: []sim.NodeID{1, 2, 3, 4}},
		{Channel: 1, Broadcasters: []sim.NodeID{5}},
	})
	c := o.Snapshot()
	if c.Slots != 1 {
		t.Fatalf("slots = %d", c.Slots)
	}
	if c.RequiredWindow < 2 {
		t.Errorf("4-way contention should need more than one micro-slot, got %d", c.RequiredWindow)
	}
	if c.Failures != 0 {
		t.Errorf("failures = %d", c.Failures)
	}
	if c.RequiredWindow > c.Budget {
		t.Errorf("required window %d exceeds budget %d", c.RequiredWindow, c.Budget)
	}
}

func TestCostObserverOnCogcastRun(t *testing.T) {
	const n, c, k = 64, 8, 2
	asn, err := assign.Partitioned(n, c, k, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := backoff.NewCostObserver(n, 3)
	res, err := cogcast.Run(asn, 0, "m", 3, cogcast.RunConfig{
		UntilAllInformed: true, MaxSlots: 100000, Engine: cogcast.Engine{Observer: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatal("broadcast incomplete")
	}
	cost := o.Snapshot()
	if cost.Slots != res.Slots {
		t.Errorf("observed %d slots, run took %d", cost.Slots, res.Slots)
	}
	if cost.RequiredWindow > cost.Budget {
		t.Errorf("required window %d above the theoretical budget %d", cost.RequiredWindow, cost.Budget)
	}
	if cost.MeanWindow < 1 {
		t.Errorf("mean window %v below 1", cost.MeanWindow)
	}
	if cost.Failures != 0 {
		t.Errorf("decay failures: %d", cost.Failures)
	}
	// Quantiles are monotone and bounded by the max.
	q50, q99 := o.WindowQuantile(0.5), o.WindowQuantile(0.99)
	if q50 > q99 || q99 > cost.RequiredWindow {
		t.Errorf("quantiles out of order: p50=%d p99=%d max=%d", q50, q99, cost.RequiredWindow)
	}
}

func TestWindowQuantileEmpty(t *testing.T) {
	o := backoff.NewCostObserver(16, 1)
	if o.WindowQuantile(0.5) != 0 {
		t.Error("quantile of empty observer should be 0")
	}
}
