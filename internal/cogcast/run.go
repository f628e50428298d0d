package cogcast

import (
	"context"
	"fmt"

	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Result reports one COGCAST execution.
type Result struct {
	// Slots is the number of slots executed.
	Slots int
	// AllInformed reports whether every node held the message at the end.
	AllInformed bool
	// Parents[v] is the node that informed v (sim.None for the source and
	// for uninformed nodes). This is the distribution tree of Section 5.
	Parents []sim.NodeID
	// InformedSlots[v] is the slot in which v was first informed (-1 for
	// the source and uninformed nodes).
	InformedSlots []int
	// Trajectory[s] is the number of informed nodes after slot s. Only
	// recorded when requested.
	Trajectory []int
}

// RunConfig configures the convenience runner.
type RunConfig struct {
	// MaxSlots bounds the execution. Zero means the theoretical bound
	// SlotBound(n, c, k, DefaultKappa).
	MaxSlots int
	// Trajectory requests per-slot informed counts.
	Trajectory bool
	// UntilAllInformed stops the run as soon as every node is informed
	// (measuring completion time); otherwise the run uses the full slot
	// budget (measuring the fixed-horizon protocol).
	UntilAllInformed bool
	// Engine carries the engine settings every protocol runner shares.
	Engine
}

// Engine holds the engine settings every protocol runner shares: COGCAST's
// RunConfig embeds it, and COGCOMP's runners fill one from their Config.
// Wiring.Options turns it into engine options.
type Engine struct {
	// Collisions selects the engine's contention semantics (default: the
	// paper's uniform-winner model). The stronger all-delivered model of
	// footnote 3 is available for ablations.
	Collisions sim.CollisionModel
	// Observer, when non-nil, receives per-slot channel outcomes (e.g. a
	// metrics.Collector), before the trace recorder and the invariant
	// checker in tee order.
	Observer sim.Observer
	// Trace, when non-nil, receives the run's structured event stream
	// (TRACE.md): per-slot channel outcomes plus the protocol's own events.
	// Nil disables tracing at zero cost.
	Trace trace.Sink
	// Check attaches the invariant oracle: the assignment's k-overlap
	// contract is re-verified, every slot's channel outcomes are re-checked
	// against the collision model, and the runner validates its own
	// results. A violation fails the run. Disabled (the default) it costs
	// nothing; see package invariant.
	Check bool
	// Context, when non-nil, is checked at every slot boundary
	// (sim.WithContext): a done context stops the run with a
	// *sim.Interrupted error carrying the slots completed. Runs that
	// complete are byte-identical with or without one.
	Context context.Context
}

// Wiring is an arena's half of the engine-settings path: the reused option
// buffer, the arena-wide overlay set by SetCheck and SetContext, and the
// invariant checker. The zero value is ready to use; the COGCAST and
// COGCOMP arenas embed one, so every runner wires its engine the same way.
type Wiring struct {
	opts       []sim.Option
	forceCheck bool
	ctx        context.Context
	checker    *invariant.Checker
}

// SetCheck forces invariant checking for every subsequent run on this
// arena, regardless of Engine.Check — how the experiment harness turns
// one -check flag into oracle coverage of every trial without threading a
// flag through each run-configuration site.
func (w *Wiring) SetCheck(on bool) { w.forceCheck = on }

// SetContext attaches a context to every subsequent run on this arena that
// does not carry its own Engine.Context — how the experiment harness
// makes a whole suite cancellable without threading a context through each
// run-configuration site.
func (w *Wiring) SetContext(ctx context.Context) { w.ctx = ctx }

// Checker returns the arena's invariant checker, non-nil once a checked
// run has happened. Its winner-uniformity tallies pool across all of the
// arena's checked runs (see invariant.Checker.Uniformity).
func (w *Wiring) Checker() *invariant.Checker { return w.checker }

// Options turns one run's engine settings into engine options, with the
// arena overlay applied: SetCheck is ORed with e.Check, and e.Context wins
// over SetContext's. A checked run first re-verifies the assignment
// contract and resets the arena's checker. Observers chain in the order
// e.Observer, the trace recorder, the checker. extra options follow the
// wired ones. The returned slice is the arena's buffer, valid until the
// next call; check reports whether the oracle is on for this run.
func (w *Wiring) Options(asn sim.Assignment, e Engine, extra ...sim.Option) (opts []sim.Option, check bool, err error) {
	check = e.Check || w.forceCheck
	w.opts = w.opts[:0]
	if e.Collisions != sim.UniformWinner {
		// The engine's default; leaving it out keeps the option closure
		// (and its allocation) off the common path.
		w.opts = append(w.opts, sim.WithCollisionModel(e.Collisions))
	}
	ctx := e.Context
	if ctx == nil {
		ctx = w.ctx
	}
	if ctx != nil {
		w.opts = append(w.opts, sim.WithContext(ctx))
	}
	obs := e.Observer
	if e.Trace != nil {
		obs = sim.Tee(obs, trace.NewRecorder(e.Trace))
	}
	if check {
		if err := invariant.CheckAssignment(asn, 0); err != nil {
			return nil, false, err
		}
		if w.checker == nil {
			w.checker = new(invariant.Checker)
		}
		w.checker.Reset(asn, e.Collisions)
		obs = sim.Tee(obs, w.checker)
	}
	if obs != nil {
		w.opts = append(w.opts, sim.WithObserver(obs))
	}
	w.opts = append(w.opts, extra...)
	return w.opts, check, nil
}

// Arena holds the reusable pieces of a COGCAST execution — nodes, their
// protocol slice, the engine, and trace scratch — so repeated trials can run
// without rebuilding them. The zero value is ready to use; Arena.Run on a
// warm arena is byte-identical to the package-level Run. Arenas are not safe
// for concurrent use: parallel trial runners keep one per worker.
type Arena struct {
	Wiring
	nodes       []*Node
	protos      []sim.Protocol
	eng         *sim.Engine
	wasInformed []bool
}

// Nodes exposes the per-node protocol state of the most recent Run; entry i
// is valid until the arena's next trial. COGCOMP's phases read these.
func (a *Arena) Nodes() []*Node { return a.nodes }

// build (re)initializes n nodes and the engine for one trial. nodeOpts apply
// to every node (COGCOMP passes WithRecording).
func (a *Arena) build(asn sim.Assignment, source sim.NodeID, payload sim.Message, seed int64, engOpts []sim.Option, nodeOpts ...Option) error {
	n := asn.Nodes()
	if cap(a.nodes) < n {
		a.nodes = append(a.nodes[:cap(a.nodes)], make([]*Node, n-cap(a.nodes))...)
		a.protos = make([]sim.Protocol, n)
	}
	a.nodes = a.nodes[:n]
	a.protos = a.protos[:n]
	for i := range a.nodes {
		if a.nodes[i] == nil {
			a.nodes[i] = &Node{}
		}
		a.nodes[i].Reinit(sim.View(asn, sim.NodeID(i)), sim.NodeID(i) == source, payload, seed, nodeOpts...)
		a.protos[i] = a.nodes[i]
	}
	if a.eng == nil {
		eng, err := sim.NewEngine(asn, a.protos, seed, engOpts...)
		if err != nil {
			return err
		}
		a.eng = eng
		return nil
	}
	return a.eng.Reset(asn, a.protos, seed, engOpts...)
}

// Run executes COGCAST exactly as the package-level Run does, reusing the
// arena's nodes and engine.
func (a *Arena) Run(asn sim.Assignment, source sim.NodeID, payload sim.Message, seed int64, cfg RunConfig) (*Result, error) {
	n := asn.Nodes()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("cogcast: source %d outside [0,%d)", source, n)
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = SlotBound(n, asn.PerNode(), asn.MinOverlap(), DefaultKappa)
	}

	opts, check, err := a.Options(asn, cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("cogcast: %w", err)
	}
	if err := a.build(asn, source, payload, seed, opts); err != nil {
		return nil, err
	}
	nodes, eng := a.nodes, a.eng

	informed := func() int {
		count := 0
		for _, nd := range nodes {
			if nd.Informed() {
				count++
			}
		}
		return count
	}

	// Tracing tracks which nodes are newly informed after each slot so it
	// can emit per-node informed events and the epidemic-progress curve.
	var wasInformed []bool
	if cfg.Trace != nil {
		if cap(a.wasInformed) < n {
			a.wasInformed = make([]bool, n)
		}
		wasInformed = a.wasInformed[:n]
		for i, nd := range nodes {
			wasInformed[i] = nd.Informed()
		}
		cfg.Trace.Emit(trace.ProgressEvent(-1, informed(), n))
	}

	res := &Result{}
	for eng.Slot() < maxSlots {
		if cfg.UntilAllInformed && informed() == n {
			break
		}
		if err := eng.RunSlot(); err != nil {
			return nil, err
		}
		if cfg.Trajectory {
			res.Trajectory = append(res.Trajectory, informed())
		}
		if cfg.Trace != nil {
			slot := eng.Slot() - 1
			changed := false
			for i, nd := range nodes {
				if !wasInformed[i] && nd.Informed() {
					wasInformed[i] = true
					changed = true
					cfg.Trace.Emit(trace.InformedEvent(slot, i, int(nd.Parent()), nd.InformedChannel()))
				}
			}
			if changed {
				cfg.Trace.Emit(trace.ProgressEvent(slot, informed(), n))
			}
		}
	}

	res.Slots = eng.Slot()
	res.AllInformed = informed() == n
	res.Parents = make([]sim.NodeID, n)
	res.InformedSlots = make([]int, n)
	for i, nd := range nodes {
		res.Parents[i] = nd.Parent()
		res.InformedSlots[i] = nd.InformedSlot()
	}
	if check {
		if err := a.checker.Err(); err != nil {
			return nil, fmt.Errorf("cogcast: slot oracle (%d violations): %w", a.checker.Violations(), err)
		}
		if err := invariant.CheckBroadcastTree(n, source, res.Parents, res.InformedSlots, res.AllInformed); err != nil {
			return nil, fmt.Errorf("cogcast: %w", err)
		}
	}
	return res, nil
}

// Run executes COGCAST over the assignment with the given source node and
// returns the outcome. It is the harness used by experiments, baselines
// comparisons, and the public API. Repeated callers should prefer a reusable
// Arena; this convenience builds a fresh one per call.
func Run(asn sim.Assignment, source sim.NodeID, payload sim.Message, seed int64, cfg RunConfig) (*Result, error) {
	return new(Arena).Run(asn, source, payload, seed, cfg)
}
