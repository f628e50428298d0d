// Package adversary implements reactive (adaptive) adversaries for the
// cognitive radio model: attackers that observe every slot's channel
// outcomes through the engine's sim.Observer hook and decide the *next*
// slot's jamming and crash actions from what they saw — the adaptive
// worst case behind the paper's Section 6 lower-bound games and Section 7
// discussion, which the repo's oblivious jammers and fault schedules
// never exercised.
//
// The model has three parts:
//
//   - A Reactive strategy turns observation history into desired actions.
//     Strategies are pure automata: deterministic functions of
//     (seed, budget, observed history), so runs stay reproducible at any
//     -parallel setting.
//   - A Budget bounds the attacker's power: a per-slot action cap and a
//     total energy reserve. Energy is charged per scheduled action-slot —
//     one unit per jammed physical channel per slot, one unit per node
//     held down per slot — the way a physical interferer burns transmit
//     power whether or not a victim happens to listen. When the reserve
//     runs out the adversary goes silent for the rest of the run.
//   - A Driver enforces the budget around a strategy and adapts it to the
//     simulator's existing attack surfaces: it is a sim.Observer (fed the
//     per-slot outcomes), a jamming.Jammer (its jam plan feeds the
//     Theorem 18 reduction unchanged), and a faults.Schedule (its crash
//     plan feeds the recovery supervisor's Crasher wrapping unchanged).
//
// The driver plans eagerly: while observing slot t (on the engine's
// goroutine, after all protocol steps resolved) it computes the budgeted
// action for slot t+1. During slot t+1 the plan is only *read* —
// Jammed and Up mutate nothing — so the answers cannot depend on how often
// or in what order the engine consults the schedule, and replaying the same
// observation history reproduces the same actions bit-for-bit.
package adversary

import (
	"fmt"
	"sort"

	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Budget bounds an adversary's power.
type Budget struct {
	// PerSlot caps the actions scheduled in any one slot (jammed channels
	// plus nodes held down).
	PerSlot int
	// Total is the energy reserve for the whole run: every scheduled
	// action-slot costs one unit. Zero or negative means the adversary is
	// inert (callers should not even wire it — see Driver.Active).
	Total int
}

// Ledger is the budget accounting of one run, reported in results and
// mirrored into the trace stream (trace.KindAdv).
type Ledger struct {
	// PerSlot and Total echo the budget the run was bounded by.
	PerSlot, Total int
	// Spent is the total energy charged; JamSpent and CrashSpent split it
	// by weapon.
	Spent, JamSpent, CrashSpent int
	// ExhaustedAt is the slot in which the reserve hit zero, or -1 if the
	// run ended with energy to spare.
	ExhaustedAt int
}

// Remaining returns the unspent reserve.
func (l Ledger) Remaining() int { return l.Total - l.Spent }

// Action is what a strategy wants to do in one slot, before budgeting:
// jam the listed physical channels (for every node — the n-uniform
// reduction) and hold the listed nodes down. Both lists are priority
// ordered; the driver keeps prefixes when the budget or the weapon caps
// bind. Strategies may request either weapon; the driver silently drops
// actions for weapons the run has not wired (a jam-only COGCAST run
// ignores crash requests and vice versa), so one strategy can carry both
// a jamming and a crashing interpretation.
type Action struct {
	Jam   []int
	Crash []sim.NodeID
}

// Reactive is an adaptive adversary strategy. Implementations must be
// deterministic functions of (seed, budget, observations) and are driven
// from a single goroutine; the driver guarantees the call order
//
//	Reset, Plan(0), [Observe(0), Plan(1)], [Observe(1), Plan(2)], ...
//
// Observe's outcome slices alias engine scratch and must not be retained
// across the call.
type Reactive interface {
	// Name identifies the strategy in reports and registries.
	Name() string
	// Reset re-arms the strategy for a run over n nodes and c physical
	// channels under the given budget.
	Reset(seed int64, n, c int, budget Budget)
	// Observe feeds one resolved slot's channel outcomes.
	Observe(slot int, outcomes []sim.ChannelOutcome)
	// Plan returns the desired (pre-budget) action for the given slot.
	Plan(slot int) Action
}

// Driver wraps a Reactive strategy with budget enforcement and adapts it
// to the simulator: it is a sim.Observer, a jamming.Jammer and a
// faults.Schedule at once. Wire only the weapons the run supports
// (EnableJam for the Theorem 18 reduction, EnableCrash for the recovery
// supervisor) and always attach the driver as an observer — planning
// happens in OnSlot, so an unattached driver never acts after slot 0.
//
// A Driver is single-run state; call Reset before each run.
type Driver struct {
	strat  Reactive
	budget Budget
	seed   int64
	n, c   int

	jamEnabled bool
	jamCap     int
	crashOn    bool
	protect    map[sim.NodeID]bool

	ledger    Ledger
	planSlot  int
	planJam   []int
	planCrash []sim.NodeID
	crashSet  []bool
	jamSeen   map[int]bool

	sink trace.Sink
}

var _ sim.Observer = (*Driver)(nil)

// NewDriver builds a driver for a strategy over n nodes and c physical
// channels. The returned driver has no weapons wired; call EnableJam
// and/or EnableCrash, then Reset.
func NewDriver(strat Reactive, n, c int, budget Budget, seed int64) (*Driver, error) {
	if strat == nil {
		return nil, fmt.Errorf("adversary: nil strategy")
	}
	if n < 1 || c < 1 {
		return nil, fmt.Errorf("adversary: need n >= 1 and c >= 1, got n=%d c=%d", n, c)
	}
	if budget.PerSlot < 0 || budget.Total < 0 {
		return nil, fmt.Errorf("adversary: negative budget (per-slot %d, total %d)", budget.PerSlot, budget.Total)
	}
	d := &Driver{
		strat:    strat,
		budget:   budget,
		seed:     seed,
		n:        n,
		c:        c,
		crashSet: make([]bool, n),
		jamSeen:  make(map[int]bool, c),
	}
	d.Reset()
	return d, nil
}

// EnableJam wires the jamming weapon: jam plans are capped at kJam
// channels per slot (the Theorem 18 reduction's per-node budget, which
// must stay below c/2 — validated by jamming.NewAssignment, not here).
func (d *Driver) EnableJam(kJam int) {
	d.jamEnabled = true
	d.jamCap = kJam
	d.replan()
}

// EnableCrash wires the crash weapon; the listed nodes (typically the
// source) are protected and never held down.
func (d *Driver) EnableCrash(protect ...sim.NodeID) {
	d.crashOn = true
	if d.protect == nil {
		d.protect = make(map[sim.NodeID]bool, len(protect))
	}
	for _, id := range protect {
		d.protect[id] = true
	}
	d.replan()
}

// Active reports whether the driver can ever act: a positive budget, a
// wired weapon, and a strategy that is not the no-op control. Inactive
// drivers should not be wired into a run at all — that is what keeps the
// zero-energy arm byte-for-byte identical to the unjammed control.
func (d *Driver) Active() bool {
	return d.budget.Total > 0 && d.budget.PerSlot > 0 && (d.jamEnabled || d.crashOn) && d.strat.Name() != "none"
}

// Reset re-arms the driver and its strategy for a fresh run.
func (d *Driver) Reset() {
	d.ledger = Ledger{PerSlot: d.budget.PerSlot, Total: d.budget.Total, ExhaustedAt: -1}
	d.strat.Reset(d.seed, d.n, d.c, d.budget)
	d.planSlot = 0
	d.replan()
}

// SetTrace attaches (or, with nil, detaches) a sink receiving one
// trace.KindAdv event per slot in which the adversary spent energy.
func (d *Driver) SetTrace(sink trace.Sink) { d.sink = sink }

// Ledger returns the run's budget accounting so far.
func (d *Driver) Ledger() Ledger { return d.ledger }

// Name implements jamming.Jammer and faults.Schedule.
func (d *Driver) Name() string { return d.strat.Name() }

// Jammed implements jamming.Jammer: the planned jam set for the current
// slot, identical for every node (n-uniform). It mutates nothing, so the
// jamming assignment may call it freely while materializing a slot.
func (d *Driver) Jammed(slot int, _ sim.NodeID) []int {
	if !d.jamEnabled || slot != d.planSlot || len(d.planJam) == 0 {
		return nil
	}
	return d.planJam
}

// Up implements faults.Schedule: a node is down while it is in the
// current slot's crash plan. It mutates nothing, so repeated lookups within
// a slot cannot perturb the plan and a replay answers identically.
func (d *Driver) Up(node sim.NodeID, slot int) bool {
	if !d.crashOn || slot != d.planSlot {
		return true
	}
	return !d.crashSet[node]
}

// OnSlot implements sim.Observer: charge the slot's plan to the ledger,
// mirror it into the trace, feed the outcomes to the strategy, and plan
// the next slot. The engine calls it once per slot after all protocol
// steps and deliveries resolved, on the engine goroutine.
func (d *Driver) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	if slot == d.planSlot {
		jamCost := len(d.planJam)
		crashCost := len(d.planCrash)
		spent := jamCost + crashCost
		d.ledger.Spent += spent
		d.ledger.JamSpent += jamCost
		d.ledger.CrashSpent += crashCost
		if d.ledger.Remaining() <= 0 && d.ledger.ExhaustedAt < 0 {
			d.ledger.ExhaustedAt = slot
		}
		if d.sink != nil && spent > 0 {
			d.sink.Emit(trace.AdvEvent(slot, jamCost, crashCost, spent, d.ledger.Remaining()))
		}
	}
	d.strat.Observe(slot, outcomes)
	d.planSlot = slot + 1
	d.replan()
}

// replan computes the budgeted plan for d.planSlot: sanitize the
// strategy's request (drop disabled weapons, out-of-range targets,
// protected nodes and duplicates), cap jams at the reduction budget, and
// spend the per-slot allowance jam-first in the strategy's priority
// order.
func (d *Driver) replan() {
	for _, id := range d.planCrash {
		d.crashSet[id] = false
	}
	d.planJam = d.planJam[:0]
	d.planCrash = d.planCrash[:0]

	limit := d.ledger.PerSlot
	if rem := d.ledger.Remaining(); rem < limit {
		limit = rem
	}
	if limit <= 0 || (!d.jamEnabled && !d.crashOn) {
		return
	}
	want := d.strat.Plan(d.planSlot)

	if d.jamEnabled {
		for k := range d.jamSeen {
			delete(d.jamSeen, k)
		}
		for _, ch := range want.Jam {
			if len(d.planJam) >= d.jamCap || len(d.planJam) >= limit {
				break
			}
			if ch < 0 || ch >= d.c || d.jamSeen[ch] {
				continue
			}
			d.jamSeen[ch] = true
			d.planJam = append(d.planJam, ch)
		}
		limit -= len(d.planJam)
	}
	if d.crashOn {
		for _, id := range want.Crash {
			if len(d.planCrash) >= limit {
				break
			}
			if id < 0 || int(id) >= d.n || d.protect[id] || d.crashSet[id] {
				continue
			}
			d.crashSet[id] = true
			d.planCrash = append(d.planCrash, id)
		}
	}
}

// sortByScoreDesc orders items by descending score, breaking ties on the
// smaller item — the canonical deterministic priority order strategies
// use for their target lists.
func sortByScoreDesc(items []int, score func(int) int) {
	sort.Slice(items, func(i, j int) bool {
		si, sj := score(items[i]), score(items[j])
		if si != sj {
			return si > sj
		}
		return items[i] < items[j]
	})
}
