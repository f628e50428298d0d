package spectrum_test

import (
	"math"
	"testing"

	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/spectrum"
)

func defaultConfig() spectrum.Config {
	return spectrum.Config{
		Nodes:    12,
		Channels: 20,
		Pilots:   2,
		PBusy:    0.10,
		PFree:    0.30,
		MissProb: 0.05,
		Seed:     1,
	}
}

func TestNewValidation(t *testing.T) {
	cases := []func(*spectrum.Config){
		func(c *spectrum.Config) { c.Nodes = 0 },
		func(c *spectrum.Config) { c.Pilots = 0 },
		func(c *spectrum.Config) { c.Pilots = c.Channels + 1 },
		func(c *spectrum.Config) { c.PBusy = 1.5 },
		func(c *spectrum.Config) { c.PFree = -0.1 },
		func(c *spectrum.Config) { c.MissProb = 2 },
	}
	for i, mutate := range cases {
		cfg := defaultConfig()
		mutate(&cfg)
		if _, err := spectrum.New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPilotsAlwaysAvailable(t *testing.T) {
	m, err := spectrum.New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 100; slot++ {
		for u := 0; u < m.Nodes(); u++ {
			set := m.ChannelSet(sim.NodeID(u), slot)
			if len(set) < m.MinOverlap() {
				t.Fatalf("slot %d node %d: only %d channels", slot, u, len(set))
			}
			found := 0
			for _, ch := range set {
				if ch < m.MinOverlap() {
					found++
				}
			}
			if found != m.MinOverlap() {
				t.Fatalf("slot %d node %d: %d of %d pilots present", slot, u, found, m.MinOverlap())
			}
		}
	}
}

func TestBusyChannelsExcluded(t *testing.T) {
	m, err := spectrum.New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 50; slot++ {
		set := m.ChannelSet(0, slot)
		for _, ch := range set {
			if m.Busy(slot, ch) {
				t.Fatalf("slot %d: node uses busy channel %d", slot, ch)
			}
		}
	}
}

func TestPilotsNeverBusy(t *testing.T) {
	m, err := spectrum.New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 100; slot++ {
		for ch := 0; ch < m.MinOverlap(); ch++ {
			if m.Busy(slot, ch) {
				t.Fatalf("pilot channel %d busy at slot %d", ch, slot)
			}
		}
	}
}

func TestOccupancyApproachesStationary(t *testing.T) {
	cfg := defaultConfig()
	cfg.Channels = 200
	cfg.Pilots = 1
	m, err := spectrum.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := m.OccupancyStationary() // 0.1/0.4 = 0.25
	// Sample occupancy at late slots.
	var busy, total int
	for slot := 200; slot < 260; slot += 10 {
		for ch := 1; ch < cfg.Channels; ch++ {
			total++
			if m.Busy(slot, ch) {
				busy++
			}
		}
	}
	got := float64(busy) / float64(total)
	if math.Abs(got-want) > 0.07 {
		t.Errorf("late occupancy %.3f, stationary %.3f", got, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	a, err := spectrum.New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := spectrum.New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Query a forward then backward; b only forward. Same answers.
	_ = a.ChannelSet(0, 30)
	backward := append([]int(nil), a.ChannelSet(1, 10)...)
	for s := 0; s <= 10; s++ {
		_ = b.ChannelSet(0, s)
	}
	forward := b.ChannelSet(1, 10)
	if len(backward) != len(forward) {
		t.Fatalf("replay diverged: %d vs %d channels", len(backward), len(forward))
	}
	for i := range forward {
		if forward[i] != backward[i] {
			t.Fatalf("replay diverged at index %d", i)
		}
	}
}

func TestCogcastCompletesOverSpectrumModel(t *testing.T) {
	cfg := defaultConfig()
	cfg.Nodes = 24
	m, err := spectrum.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcast.Run(m, 0, "beacon", 3, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("broadcast over PU-driven spectrum incomplete after %d slots", res.Slots)
	}
}

func TestHighOccupancyStillCompletes(t *testing.T) {
	cfg := defaultConfig()
	cfg.PBusy, cfg.PFree = 0.45, 0.05 // stationary occupancy 0.9
	cfg.MissProb = 0.2
	m, err := spectrum.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcast.Run(m, 0, "beacon", 4, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("broadcast under 90%% occupancy incomplete after %d slots", res.Slots)
	}
}

// TestFillAllocFree pins the reuse of the model's shuffle generator: once
// warm, materializing a new slot for every node allocates nothing.
func TestFillAllocFree(t *testing.T) {
	m, err := spectrum.New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	m.ChannelSet(0, slot)
	allocs := testing.AllocsPerRun(50, func() {
		slot++
		m.ChannelSet(0, slot)
	})
	if allocs != 0 {
		t.Errorf("filling a slot allocates %.1f objects, want 0", allocs)
	}
}
