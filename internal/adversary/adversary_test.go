package adversary

import (
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// scripted is a test strategy that requests a fixed action every slot.
type scripted struct {
	jam   []int
	crash []sim.NodeID
}

func (*scripted) Name() string                      { return "scripted" }
func (*scripted) Reset(int64, int, int, Budget)     {}
func (*scripted) Observe(int, []sim.ChannelOutcome) {}
func (s *scripted) Plan(int) Action                 { return Action{Jam: s.jam, Crash: s.crash} }

type eventLog struct{ events []trace.Event }

func (l *eventLog) Emit(ev trace.Event) { l.events = append(l.events, ev) }

func TestRegistry(t *testing.T) {
	names := Strategies()
	want := []string{"none", "busiest", "follower", "hunter", "crasher", "oblivious"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Strategies() = %v, want %v", names, want)
	}
	for _, name := range names {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
		if name != "none" && !CanJam(name) && !CanCrash(name) {
			t.Errorf("strategy %q has no weapon", name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
	if CanJam("crasher") || CanJam("oblivious") || CanJam("none") {
		t.Error("CanJam admits a crash-only or no-op strategy")
	}
	if CanCrash("busiest") || CanCrash("follower") || CanCrash("none") {
		t.Error("CanCrash admits a jam-only or no-op strategy")
	}
}

func TestNewDriverValidation(t *testing.T) {
	ok := Budget{PerSlot: 1, Total: 10}
	if _, err := NewDriver(nil, 4, 8, ok, 1); err == nil {
		t.Error("nil strategy accepted")
	}
	if _, err := NewDriver(&scripted{}, 0, 8, ok, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewDriver(&scripted{}, 4, 0, ok, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := NewDriver(&scripted{}, 4, 8, Budget{PerSlot: -1, Total: 10}, 1); err == nil {
		t.Error("negative per-slot budget accepted")
	}
	if _, err := NewDriver(&scripted{}, 4, 8, Budget{PerSlot: 1, Total: -1}, 1); err == nil {
		t.Error("negative total budget accepted")
	}
}

func TestActive(t *testing.T) {
	mk := func(strat Reactive, b Budget, wire func(*Driver)) bool {
		d, err := NewDriver(strat, 4, 8, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if wire != nil {
			wire(d)
		}
		return d.Active()
	}
	armed := Budget{PerSlot: 2, Total: 10}
	if mk(&scripted{}, armed, nil) {
		t.Error("driver with no weapon wired reports Active")
	}
	if mk(&scripted{}, Budget{PerSlot: 0, Total: 10}, func(d *Driver) { d.EnableJam(2) }) {
		t.Error("zero per-slot budget reports Active")
	}
	if mk(&scripted{}, Budget{PerSlot: 2, Total: 0}, func(d *Driver) { d.EnableJam(2) }) {
		t.Error("zero total budget reports Active")
	}
	if mk(&noop{}, armed, func(d *Driver) { d.EnableJam(2) }) {
		t.Error("no-op control reports Active")
	}
	if !mk(&scripted{}, armed, func(d *Driver) { d.EnableJam(2) }) {
		t.Error("armed jam driver reports inactive")
	}
	if !mk(&scripted{}, armed, func(d *Driver) { d.EnableCrash() }) {
		t.Error("armed crash driver reports inactive")
	}
}

// TestPlanSanitizing pins the driver's clamping contract: dedupe,
// range filtering, the per-slot cap, the jam cap, jam-first spending and
// protected nodes.
func TestPlanSanitizing(t *testing.T) {
	strat := &scripted{
		jam:   []int{5, 5, -1, 99, 3, 1, 2},
		crash: []sim.NodeID{0, 0, -3, 42, 2, 1},
	}
	d, err := NewDriver(strat, 4, 8, Budget{PerSlot: 4, Total: 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableJam(2)
	d.EnableCrash(0) // protect node 0
	d.Reset()

	jam := d.Jammed(0, 0)
	if want := []int{5, 3}; !reflect.DeepEqual(jam, want) {
		t.Errorf("Jammed(0) = %v, want %v (dedupe, drop out-of-range, cap at kJam=2)", jam, want)
	}
	// Per-slot 4, 2 spent on jam, so 2 crash slots: node 0 is protected,
	// duplicates and out-of-range drop, leaving 2 then 1.
	for node, wantUp := range map[sim.NodeID]bool{0: true, 1: false, 2: false, 3: true} {
		if got := d.Up(node, 0); got != wantUp {
			t.Errorf("Up(%d, 0) = %v, want %v", node, got, wantUp)
		}
	}
	// Other slots are untouched: the plan only covers the current slot.
	if d.Jammed(1, 0) != nil {
		t.Error("Jammed(1) acted before slot 0 was observed")
	}
	if !d.Up(1, 1) {
		t.Error("Up(1, 1) acted before slot 0 was observed")
	}
}

func TestWeaponGating(t *testing.T) {
	strat := &scripted{jam: []int{1, 2}, crash: []sim.NodeID{1, 2}}

	jamOnly, err := NewDriver(strat, 4, 8, Budget{PerSlot: 4, Total: 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	jamOnly.EnableJam(3)
	jamOnly.Reset()
	if got := jamOnly.Jammed(0, 0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("jam-only Jammed = %v", got)
	}
	if !jamOnly.Up(1, 0) {
		t.Error("jam-only driver crashed a node")
	}
	jamOnly.OnSlot(0, nil)
	if got := jamOnly.Ledger(); got.Spent != 2 || got.CrashSpent != 0 {
		t.Errorf("jam-only ledger charged crash energy: %+v", got)
	}

	crashOnly, err := NewDriver(strat, 4, 8, Budget{PerSlot: 4, Total: 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	crashOnly.EnableCrash()
	crashOnly.Reset()
	if got := crashOnly.Jammed(0, 0); got != nil {
		t.Errorf("crash-only driver jammed %v", got)
	}
	if crashOnly.Up(1, 0) || crashOnly.Up(2, 0) {
		t.Error("crash-only driver did not crash its targets")
	}
}

// TestExhaustion drives the reserve to zero mid-run and checks the
// adversary goes silent with the exhaustion slot recorded.
func TestExhaustion(t *testing.T) {
	strat := &scripted{jam: []int{0, 1}}
	d, err := NewDriver(strat, 4, 8, Budget{PerSlot: 2, Total: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableJam(3)
	d.Reset()

	// Slot 0: spend 2 (reserve 3). Slot 1: spend 2 (reserve 1).
	// Slot 2: clamp to 1 (reserve 0, exhausted). Slot 3+: silent.
	wantJams := [][]int{{0, 1}, {0, 1}, {0}, nil, nil}
	for slot, want := range wantJams {
		got := d.Jammed(slot, 0)
		if len(got) == 0 && len(want) == 0 {
			got, want = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("slot %d: Jammed = %v, want %v", slot, got, want)
		}
		d.OnSlot(slot, nil)
	}
	l := d.Ledger()
	if l.Spent != 5 || l.Remaining() != 0 {
		t.Errorf("ledger spent %d remaining %d, want 5/0", l.Spent, l.Remaining())
	}
	if l.ExhaustedAt != 2 {
		t.Errorf("ExhaustedAt = %d, want 2", l.ExhaustedAt)
	}
	if l.JamSpent != 5 || l.CrashSpent != 0 {
		t.Errorf("weapon split = jam %d crash %d, want 5/0", l.JamSpent, l.CrashSpent)
	}
}

// TestPerSlotCapAboveReserve: when PerSlot exceeds Total, the first plan
// is clamped to the whole reserve and the adversary exhausts in slot 0.
func TestPerSlotCapAboveReserve(t *testing.T) {
	strat := &scripted{jam: []int{0, 1, 2, 3, 4}}
	d, err := NewDriver(strat, 4, 16, Budget{PerSlot: 5, Total: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableJam(7)
	d.Reset()

	if got := d.Jammed(0, 0); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("slot 0 Jammed = %v, want [0 1 2]", got)
	}
	d.OnSlot(0, nil)
	if got := d.Jammed(1, 0); got != nil {
		t.Errorf("slot 1 Jammed = %v after exhaustion", got)
	}
	l := d.Ledger()
	if l.ExhaustedAt != 0 || l.Spent != 3 {
		t.Errorf("ledger = %+v, want exhausted at slot 0 with 3 spent", l)
	}
}

// TestTraceLedgerChain checks the emitted KindAdv events form the chained
// ledger the invariant checker verifies: A = jam+crash, B = prevB - A,
// and silent slots emit nothing.
func TestTraceLedgerChain(t *testing.T) {
	strat := &scripted{jam: []int{0}, crash: []sim.NodeID{1}}
	d, err := NewDriver(strat, 4, 8, Budget{PerSlot: 2, Total: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableJam(2)
	d.EnableCrash()
	var log eventLog
	d.SetTrace(&log)
	d.Reset()

	for slot := 0; slot < 6; slot++ {
		d.OnSlot(slot, nil)
	}
	// Spend 2, 2, 1, then silence: three events.
	if len(log.events) != 3 {
		t.Fatalf("got %d adv events, want 3: %v", len(log.events), log.events)
	}
	rem := int64(5)
	for i, ev := range log.events {
		if ev.Kind != trace.KindAdv {
			t.Fatalf("event %d kind = %v", i, ev.Kind)
		}
		if ev.A != int64(ev.Channel+ev.Node) {
			t.Errorf("event %d: spent %d != jam %d + crash %d", i, ev.A, ev.Channel, ev.Node)
		}
		rem -= ev.A
		if ev.B != rem {
			t.Errorf("event %d: remaining %d, want %d", i, ev.B, rem)
		}
	}
	if rem != 0 {
		t.Errorf("final remaining %d, want 0", rem)
	}
}

// TestReplayDeterminism replays a synthetic observation history through
// every strategy twice and demands bit-identical plans — the contract
// that keeps parallel runs reproducible.
func TestReplayDeterminism(t *testing.T) {
	history := syntheticHistory(40, 8)
	for _, name := range Strategies() {
		plans := func() [][2]string {
			strat, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDriver(strat, 10, 8, Budget{PerSlot: 3, Total: 50}, 99)
			if err != nil {
				t.Fatal(err)
			}
			d.EnableJam(3)
			d.EnableCrash(0)
			d.Reset()
			var out [][2]string
			for slot, outcomes := range history {
				jam := append([]int(nil), d.Jammed(slot, 0)...)
				var down []sim.NodeID
				for u := 0; u < 10; u++ {
					if !d.Up(sim.NodeID(u), slot) {
						down = append(down, sim.NodeID(u))
					}
				}
				out = append(out, [2]string{str(jam), strn(down)})
				d.OnSlot(slot, outcomes)
			}
			return out
		}
		a, b := plans(), plans()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("strategy %q: replay diverged", name)
		}
	}
}

// TestBudgetNeverExceeded drives every strategy through a synthetic
// history and checks the per-slot cap, jam cap, channel range and total
// reserve hold in every slot — the property the fuzz target extends.
func TestBudgetNeverExceeded(t *testing.T) {
	const n, c, perSlot, total, kJam = 10, 8, 3, 17, 2
	history := syntheticHistory(60, c)
	for _, name := range Strategies() {
		strat, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDriver(strat, n, c, Budget{PerSlot: perSlot, Total: total}, 5)
		if err != nil {
			t.Fatal(err)
		}
		d.EnableJam(kJam)
		d.EnableCrash(0)
		d.Reset()
		spent := 0
		for slot, outcomes := range history {
			jam := d.Jammed(slot, 0)
			if len(jam) > kJam {
				t.Fatalf("%q slot %d: %d jams > kJam %d", name, slot, len(jam), kJam)
			}
			seen := map[int]bool{}
			for _, ch := range jam {
				if ch < 0 || ch >= c {
					t.Fatalf("%q slot %d: jam channel %d out of range", name, slot, ch)
				}
				if seen[ch] {
					t.Fatalf("%q slot %d: duplicate jam channel %d", name, slot, ch)
				}
				seen[ch] = true
			}
			down := 0
			for u := 0; u < n; u++ {
				if !d.Up(sim.NodeID(u), slot) {
					down++
				}
			}
			if !d.Up(0, slot) {
				t.Fatalf("%q slot %d: protected node 0 crashed", name, slot)
			}
			acts := len(jam) + down
			if acts > perSlot {
				t.Fatalf("%q slot %d: %d actions > per-slot %d", name, slot, acts, perSlot)
			}
			spent += acts
			d.OnSlot(slot, outcomes)
			if got := d.Ledger().Spent; got != spent {
				t.Fatalf("%q slot %d: ledger spent %d, observed %d", name, slot, got, spent)
			}
		}
		if spent > total {
			t.Fatalf("%q: spent %d > total %d", name, spent, total)
		}
	}
}

// TestHunterFindsMediator: a node that wins the same channel repeatedly
// is targeted on both lists; churn is not.
func TestHunterFindsMediator(t *testing.T) {
	strat, err := New("hunter")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(strat, 8, 4, Budget{PerSlot: 4, Total: 100}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableJam(1)
	d.EnableCrash()
	d.Reset()

	// Channel 2 delivers node 5 twice (a mediator); channel 0 churns.
	win := func(ch int, w sim.NodeID) sim.ChannelOutcome {
		return sim.ChannelOutcome{Channel: ch, Broadcasters: []sim.NodeID{w}, Winner: w}
	}
	d.OnSlot(0, []sim.ChannelOutcome{win(0, 1), win(2, 5)})
	d.OnSlot(1, []sim.ChannelOutcome{win(0, 2), win(2, 5)})
	if got := d.Jammed(2, 0); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("hunter jammed %v, want [2]", got)
	}
	if d.Up(5, 2) {
		t.Error("hunter left the mediator up")
	}
	if !d.Up(1, 2) || !d.Up(2, 2) {
		t.Error("hunter crashed a churning winner")
	}
	// An idle channel keeps its streak; an active undelivered one resets.
	d.OnSlot(2, nil)
	if d.Up(5, 3) {
		t.Error("idle slot dropped the mediator's streak")
	}
	d.OnSlot(3, []sim.ChannelOutcome{{Channel: 2, Broadcasters: []sim.NodeID{5, 6}, Winner: sim.None}})
	if !d.Up(5, 4) {
		t.Error("collision did not reset the mediator's streak")
	}
}

// TestObliviousWindows: the oblivious control redraws its victim set only
// at window boundaries and is a pure function of (seed, window).
func TestObliviousWindows(t *testing.T) {
	strat, err := New("oblivious")
	if err != nil {
		t.Fatal(err)
	}
	strat.Reset(11, 20, 8, Budget{PerSlot: 3, Total: 1000})
	first := str(crashInts(strat.Plan(0)))
	for slot := 1; slot < obliviousDuration; slot++ {
		if got := str(crashInts(strat.Plan(slot))); got != first {
			t.Fatalf("slot %d redrew within the window: %s vs %s", slot, got, first)
		}
	}
	next := str(crashInts(strat.Plan(obliviousDuration)))
	if next == first {
		t.Logf("windows 0 and 1 drew the same set (possible, just unlikely)")
	}
	strat.Reset(11, 20, 8, Budget{PerSlot: 3, Total: 1000})
	if got := str(crashInts(strat.Plan(0))); got != first {
		t.Errorf("reset changed window 0: %s vs %s", got, first)
	}
}

func crashInts(a Action) []int {
	out := make([]int, 0, len(a.Crash))
	for _, id := range a.Crash {
		out = append(out, int(id))
	}
	return out
}

// syntheticHistory builds a deterministic per-slot outcome history with
// varying traffic shape so every strategy's detection logic gets exercised.
func syntheticHistory(slots, c int) [][]sim.ChannelOutcome {
	history := make([][]sim.ChannelOutcome, slots)
	for slot := 0; slot < slots; slot++ {
		// Traffic ramps, collapses, and ramps again to trip the crasher's
		// boundary detector; winners repeat to trip the hunter's streaks.
		active := (slot % 7) + 1
		if active > c {
			active = c
		}
		var outs []sim.ChannelOutcome
		for ch := 0; ch < active; ch++ {
			w := sim.NodeID((ch + slot/5) % 10)
			out := sim.ChannelOutcome{
				Channel:      ch,
				Broadcasters: []sim.NodeID{w, (w + 1) % 10},
				Winner:       w,
				Listeners:    []sim.NodeID{(w + 2) % 10},
			}
			if slot%11 == ch {
				out.Winner = sim.None
			}
			outs = append(outs, out)
		}
		history[slot] = outs
	}
	return history
}

func str(v []int) string {
	s := "["
	for _, x := range v {
		s += " " + itoa(x)
	}
	return s + " ]"
}

func strn(v []sim.NodeID) string {
	s := "["
	for _, x := range v {
		s += " " + itoa(int(x))
	}
	return s + " ]"
}

func itoa(x int) string {
	if x < 0 {
		return "-" + itoa(-x)
	}
	if x < 10 {
		return string(rune('0' + x))
	}
	return itoa(x/10) + string(rune('0'+x%10))
}
