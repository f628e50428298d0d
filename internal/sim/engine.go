package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/cogradio/crn/internal/rng"
)

// ErrMaxSlots is returned by Engine.Run when the slot budget is exhausted
// before every protocol reported Done.
var ErrMaxSlots = errors.New("sim: slot budget exhausted before all nodes terminated")

// ChannelOutcome describes what happened on one physical channel during one
// slot. It is produced only when an Observer is attached. The Broadcasters
// and Listeners slices alias the engine's per-slot scratch: they are valid
// only for the duration of the OnSlot call and must be copied to be kept.
type ChannelOutcome struct {
	// Channel is the physical channel index.
	Channel int
	// Broadcasters lists all nodes that transmitted on the channel.
	Broadcasters []NodeID
	// Winner is the broadcaster whose message was received, or None if the
	// channel carried no transmission.
	Winner NodeID
	// Listeners lists all nodes that listened on the channel.
	Listeners []NodeID
}

// Observer receives a per-slot report of all channels that saw activity
// (at least one broadcaster or listener). Outcomes are sorted by channel.
// The outcomes slice and the node slices inside each ChannelOutcome are
// engine-owned scratch, reused on the next slot: they are only valid for
// the duration of the call and must be copied to be retained.
type Observer interface {
	OnSlot(slot int, outcomes []ChannelOutcome)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(slot int, outcomes []ChannelOutcome)

// OnSlot implements Observer.
func (f ObserverFunc) OnSlot(slot int, outcomes []ChannelOutcome) { f(slot, outcomes) }

var _ Observer = (ObserverFunc)(nil)

// Engine drives a set of protocol nodes through synchronous slots over a
// channel assignment, resolving contention per the paper's collision model.
// Engines are deterministic: the same assignment, protocols and seed yield
// the same execution.
type Engine struct {
	asn        Assignment
	nodes      []Protocol
	rand       *rand.Rand
	collisions CollisionModel

	slot int
	obs  Observer
	ctx  context.Context // slot-boundary interrupt check; nil = never

	// Per-slot scratch, reused across slots so a steady-state RunSlot does
	// not allocate. bcast and listen are dense, indexed by physical channel
	// and sized to asn.Channels() up front (grown on demand should an
	// assignment hand out a larger index). touched marks the channels used
	// this slot and active lists them so reset is O(active), not O(C).
	// Resolution scans physical channels in ascending index order — the same
	// deterministic order the previous sorted-map implementation produced.
	acts       []Action
	bcast      [][]NodeID // physical channel -> broadcasters
	listen     [][]NodeID // physical channel -> listeners
	touched    []bool     // physical channel -> used this slot
	active     []int      // physical channels touched this slot (unordered)
	outScratch []ChannelOutcome

	// Event-driven stepping (WithSparse). sparseReq is the requested mode;
	// sp holds the wake-queue state and is live only while sp.on (see
	// sparse.go for the gating rules). audit, when set, receives the sparse
	// scheduler's decisions for external cross-checking.
	sparseReq bool
	audit     WakeAuditor
	sp        sparseState
}

// slotsExecuted counts every slot executed by any engine in the process; see
// SlotsExecuted.
var slotsExecuted atomic.Int64

// SlotsExecuted returns the total number of slots executed by all engines in
// this process since it started. The counter is monotonic and safe for
// concurrent use; callers measure work by differencing two reads (this is
// what cogbench's -bench-out accounting does).
func SlotsExecuted() int64 { return slotsExecuted.Load() }

// nodesSimulated counts every node instantiated into any engine by Reset;
// see NodesSimulated.
var nodesSimulated atomic.Int64

// NodesSimulated returns the total number of protocol nodes handed to engine
// Resets in this process since it started — one increment of n per trial.
// Like SlotsExecuted it is monotonic and differenced by benchmarks; cogbench
// uses it to amortize allocated bytes into a bytes-per-node figure.
func NodesSimulated() int64 { return nodesSimulated.Load() }

// CollisionModel selects how concurrent broadcasts on one channel resolve.
type CollisionModel uint8

const (
	// UniformWinner is the paper's model (Section 2): one uniformly chosen
	// message is delivered; losers learn they failed and receive the
	// winner's message. This is the default.
	UniformWinner CollisionModel = iota
	// AllDelivered is the stronger model common in the cognitive radio
	// literature (the paper's footnote 3): every concurrent message is
	// received by every listener, and every broadcaster succeeds. Useful
	// for ablations; COGCOMP's census phase assumes UniformWinner.
	AllDelivered
)

// String returns the model's name.
func (m CollisionModel) String() string {
	switch m {
	case UniformWinner:
		return "uniform-winner"
	case AllDelivered:
		return "all-delivered"
	default:
		return "invalid"
	}
}

// Option configures an Engine.
type Option func(*Engine)

// WithObserver attaches an observer that is invoked after every slot.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.obs = o }
}

// WithCollisionModel selects the contention semantics (default
// UniformWinner).
func WithCollisionModel(m CollisionModel) Option {
	return func(e *Engine) { e.collisions = m }
}

// NewEngine creates an engine over the given assignment and one protocol per
// node. len(nodes) must equal asn.Nodes(). The seed determines all collision
// tie-breaking; protocols are expected to derive their own streams from the
// same root seed via package rng.
func NewEngine(asn Assignment, nodes []Protocol, seed int64, opts ...Option) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(asn, nodes, seed, opts...); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-initializes the engine over a new assignment, protocol set and
// seed, exactly as NewEngine would — observer and collision model return to
// their defaults before opts apply, and the tie-break stream restarts at the
// derived seed — but the dense per-channel scratch, action buffer and
// generator source are kept, so a trial arena resetting an engine between
// trials allocates nothing once the scratch has grown to the largest shape
// seen. Executions after a Reset are byte-identical to those of a fresh
// engine.
func (e *Engine) Reset(asn Assignment, nodes []Protocol, seed int64, opts ...Option) error {
	if asn == nil {
		return errors.New("sim: nil assignment")
	}
	if got, want := len(nodes), asn.Nodes(); got != want {
		return fmt.Errorf("sim: got %d protocols for %d nodes", got, want)
	}
	for i, p := range nodes {
		if p == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", i)
		}
	}
	// Clear buckets left by a previous run before any reshaping: active
	// indexes the old scratch.
	e.touchReset()
	e.asn = asn
	e.nodes = nodes
	if e.rand == nil {
		e.rand = rng.New(seed, int64(len(nodes)), 0x5e5)
	} else {
		rng.Reseed(e.rand, seed, int64(len(nodes)), 0x5e5)
	}
	e.collisions = UniformWinner
	e.slot = 0
	e.obs = nil
	e.ctx = nil
	e.sparseReq = false
	e.audit = nil
	if cap(e.acts) < len(nodes) {
		e.acts = make([]Action, len(nodes))
	}
	e.acts = e.acts[:len(nodes)]
	c := asn.Channels()
	// Assignments that know their exact maximum physical index let us
	// pre-size the dense scratch past the advertised Channels(), so the
	// growScratch path never fires mid-run.
	if b, ok := asn.(ChannelBounder); ok {
		if m := b.MaxPhysChannel() + 1; m > c {
			c = m
		}
	}
	e.growScratch(c)
	if cap(e.active) < c {
		e.active = make([]int, 0, c)
	}
	for _, opt := range opts {
		opt(e)
	}
	e.configureSparse()
	nodesSimulated.Add(int64(len(nodes)))
	return nil
}

// Slot returns the number of slots executed so far.
func (e *Engine) Slot() int { return e.slot }

// Collisions returns the engine's collision model. Debug observers (the
// invariant checker) use it to select which semantics to re-verify.
func (e *Engine) Collisions() CollisionModel { return e.collisions }

// AllDone reports whether every protocol has terminated.
func (e *Engine) AllDone() bool {
	if e.sp.on {
		// The sparse scan observes every Done transition as it happens
		// (step, delivery, or initial state), so the count is exact.
		return e.sp.notDone == 0
	}
	for _, p := range e.nodes {
		if !p.Done() {
			return false
		}
	}
	return true
}

// RunSlot executes exactly one slot: collects actions, resolves each channel,
// and delivers feedback. It returns an error if any protocol produced an
// invalid action (out-of-range local channel index), or an *Interrupted
// error — before executing anything — if a context attached via WithContext
// is done.
func (e *Engine) RunSlot() error {
	if err := e.checkInterrupt(); err != nil {
		return err
	}
	slot := e.slot
	e.slot++
	slotsExecuted.Add(1)

	e.touchReset()

	if e.sp.on {
		return e.runSlotSparse(slot)
	}

	// Phase A: collect actions and bucket nodes by physical channel.
	broadcasts, maxCh, err := e.scanSerial(slot)
	if err != nil {
		return err
	}

	// Fast path: with no broadcaster anywhere there is no feedback to
	// deliver, and with no observer there is nothing to report — skip
	// channel resolution entirely.
	if broadcasts == 0 && e.obs == nil {
		return nil
	}

	// Phase B: resolve channels in deterministic ascending physical order.
	var outcomes []ChannelOutcome
	if e.obs != nil {
		outcomes = e.outScratch[:0]
	}
	for ch := 0; ch <= maxCh; ch++ {
		if !e.touched[ch] {
			continue
		}
		bs := e.bcast[ch]
		winner := None
		if len(bs) > 0 {
			switch e.collisions {
			case AllDelivered:
				// Footnote-3 semantics: every message goes through.
				winner = bs[0]
				for _, b := range bs {
					e.deliver(b, slot, Event{Kind: EvSendSucceeded, From: b, Msg: e.acts[b].Msg, Channel: e.acts[b].Channel})
				}
				for _, l := range e.listen[ch] {
					for _, b := range bs {
						e.deliver(l, slot, Event{Kind: EvReceived, From: b, Msg: e.acts[b].Msg, Channel: e.acts[l].Channel})
					}
				}
			default:
				winner = bs[e.rand.Intn(len(bs))]
				msg := e.acts[winner].Msg
				for _, b := range bs {
					if b == winner {
						e.deliver(b, slot, Event{Kind: EvSendSucceeded, From: winner, Msg: msg, Channel: e.acts[b].Channel})
					} else {
						e.deliver(b, slot, Event{Kind: EvSendFailed, From: winner, Msg: msg, Channel: e.acts[b].Channel})
					}
				}
				for _, l := range e.listen[ch] {
					e.deliver(l, slot, Event{Kind: EvReceived, From: winner, Msg: msg, Channel: e.acts[l].Channel})
				}
			}
		}
		if e.obs != nil {
			outcomes = append(outcomes, ChannelOutcome{
				Channel:      ch,
				Broadcasters: bs,
				Winner:       winner,
				Listeners:    e.listen[ch],
			})
		}
	}
	if e.obs != nil {
		// Keep the (possibly regrown) backing array so the next observed
		// slot appends into it instead of allocating.
		e.outScratch = outcomes
		e.obs.OnSlot(slot, outcomes)
	}
	return nil
}

// Run executes slots until every protocol is done or maxSlots slots have
// been executed in total (across all Run/RunSlot calls). It returns the
// total slot count so far. If the budget runs out first it returns
// ErrMaxSlots; the engine remains usable, so callers may extend the budget
// and continue.
func (e *Engine) Run(maxSlots int) (int, error) {
	for !e.AllDone() {
		if e.slot >= maxSlots {
			return e.slot, ErrMaxSlots
		}
		if err := e.RunSlot(); err != nil {
			return e.slot, err
		}
	}
	return e.slot, nil
}

// RunWhile executes slots while cond returns true and the slot budget lasts.
// cond is evaluated before each slot. It returns the total slot count.
func (e *Engine) RunWhile(maxSlots int, cond func() bool) (int, error) {
	for cond() {
		if e.slot >= maxSlots {
			return e.slot, ErrMaxSlots
		}
		if err := e.RunSlot(); err != nil {
			return e.slot, err
		}
	}
	return e.slot, nil
}

// scanSerial is the single-goroutine phase-A scan: step every non-done node
// in index order and bucket its action by physical channel. It returns the
// broadcast count and the highest channel touched (-1 if none).
func (e *Engine) scanSerial(slot int) (broadcasts, maxCh int, err error) {
	maxCh = -1 // highest physical channel touched; bounds phase B's scan
	for i, p := range e.nodes {
		if p.Done() {
			e.acts[i] = Idle()
			continue
		}
		act := p.Step(slot)
		e.acts[i] = act
		if act.Op == OpIdle {
			continue
		}
		set := e.asn.ChannelSet(NodeID(i), slot)
		if act.Channel < 0 || act.Channel >= len(set) {
			return 0, 0, fmt.Errorf("sim: slot %d: node %d chose local channel %d outside [0,%d)",
				slot, i, act.Channel, len(set))
		}
		phys := set[act.Channel]
		if phys < 0 {
			return 0, 0, fmt.Errorf("sim: slot %d: assignment mapped node %d to negative physical channel %d", slot, i, phys)
		}
		if phys >= len(e.bcast) {
			e.growScratch(phys + 1)
		}
		if !e.touched[phys] {
			e.touched[phys] = true
			e.active = append(e.active, phys)
		}
		if phys > maxCh {
			maxCh = phys
		}
		switch act.Op {
		case OpListen:
			e.listen[phys] = append(e.listen[phys], NodeID(i))
		case OpBroadcast:
			e.bcast[phys] = append(e.bcast[phys], NodeID(i))
			broadcasts++
		default:
			return 0, 0, fmt.Errorf("sim: slot %d: node %d produced invalid op %d", slot, i, act.Op)
		}
	}
	return broadcasts, maxCh, nil
}

func (e *Engine) deliver(id NodeID, slot int, ev Event) {
	e.nodes[id].Deliver(slot, ev)
}

// growScratch extends the dense per-channel scratch to cover at least n
// physical channels — taken at Reset time and when an assignment hands out
// an index at or above the asn.Channels() it advertised at construction.
func (e *Engine) growScratch(n int) {
	if short := n - len(e.bcast); short > 0 {
		e.bcast = append(e.bcast, make([][]NodeID, short)...)
		e.listen = append(e.listen, make([][]NodeID, short)...)
		e.touched = append(e.touched, make([]bool, short)...)
	}
	if e.sp.on {
		e.growParked(len(e.bcast))
	}
}

func (e *Engine) touchReset() {
	for _, ch := range e.active {
		e.touched[ch] = false
		e.bcast[ch] = e.bcast[ch][:0]
		e.listen[ch] = e.listen[ch][:0]
	}
	e.active = e.active[:0]
}
