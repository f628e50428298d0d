package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/cogcomp"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
	"github.com/cogradio/crn/internal/tree"
)

// The traced run replays each trial from the layers' public functions
// instead of calling crn or the cogcast arena, so that spans can wrap every
// layer call. Its outputs must hash to the untraced run's, which checks that
// the replay does the same work.

// counters are the traced run's work counts, summed over its trials.
type counters struct {
	trials      int
	slots       int64
	nodeSlots   int64
	steps       int64
	deliveries  int64
	phaseSlots  [4]int64
	traceBytes  int64
	traceEvents int64
	violations  int64
}

func (c *counters) merge(o *counters) {
	c.trials += o.trials
	c.slots += o.slots
	c.nodeSlots += o.nodeSlots
	c.steps += o.steps
	c.deliveries += o.deliveries
	for i := range c.phaseSlots {
		c.phaseSlots[i] += o.phaseSlots[i]
	}
	c.traceBytes += o.traceBytes
	c.traceEvents += o.traceEvents
	c.violations += o.violations
}

// tracer is one goroutine's spans and counts.
type tracer struct {
	log spanLog
	cnt counters
}

// inTrial runs body under the root span of trial id and counts the trial.
func (t *tracer) inTrial(id int, body func(root int)) {
	t.log.trial = id
	root := t.log.begin("trial", -1)
	body(root)
	t.log.end(root)
	t.cnt.trials++
}

// countingProto forwards to a node and counts the engine's calls into it.
type countingProto struct {
	p sim.Protocol
	c *counters
}

func (w *countingProto) Step(slot int) sim.Action {
	w.c.steps++
	return w.p.Step(slot)
}

func (w *countingProto) Deliver(slot int, ev sim.Event) {
	w.c.deliveries++
	w.p.Deliver(slot, ev)
}

func (w *countingProto) Done() bool { return w.p.Done() }

// timedObserver forwards slot reports and sums the time the observer takes.
type timedObserver struct {
	next sim.Observer
	ns   int64
}

func (o *timedObserver) OnSlot(slot int, outcomes []sim.ChannelOutcome) {
	t := time.Now()
	o.next.OnSlot(slot, outcomes)
	o.ns += int64(time.Since(t))
}

// countingSink forwards trace events and counts them.
type countingSink struct {
	next trace.Sink
	n    int64
}

func (s *countingSink) Emit(ev trace.Event) {
	s.n++
	s.next.Emit(ev)
}

// castReplay replays cogcast.Arena.Run: node init (cogcast.Node.Reinit),
// engine set-up (sim.NewEngine or Engine.Reset) and the slot loop
// (Engine.RunSlot), each under its own span. A replay is reused across
// trials like an arena unless run is asked for a fresh one, which is what
// crn.Network.Broadcast pays on every call.
type castReplay struct {
	nodes  []*cogcast.Node
	protos []sim.Protocol
	counts []countingProto
	eng    *sim.Engine
}

func (d *castReplay) run(t *tracer, parent int, asn sim.Assignment, seed int64, maxSlots int, untilAll, fresh bool) (*cogcast.Result, error) {
	n := asn.Nodes()
	l := &t.log
	if fresh || len(d.nodes) != n {
		d.nodes = make([]*cogcast.Node, n)
		d.protos = make([]sim.Protocol, n)
		d.counts = make([]countingProto, n)
		d.eng = nil
	}
	id := l.begin("cogcast.init", parent)
	for i := range d.nodes {
		if d.nodes[i] == nil {
			d.nodes[i] = &cogcast.Node{}
		}
		d.nodes[i].Reinit(sim.View(asn, sim.NodeID(i)), i == 0, "m", seed)
		d.counts[i] = countingProto{p: d.nodes[i], c: &t.cnt}
		d.protos[i] = &d.counts[i]
	}
	l.end(id)

	id = l.begin("sim.reset", parent)
	var err error
	opt := sim.WithCollisionModel(sim.UniformWinner)
	if d.eng == nil {
		d.eng, err = sim.NewEngine(asn, d.protos, seed, opt)
	} else {
		err = d.eng.Reset(asn, d.protos, seed, opt)
	}
	l.end(id)
	if err != nil {
		return nil, err
	}

	eng := d.eng
	id = l.begin("sim.slots", parent)
	for eng.Slot() < maxSlots {
		if untilAll && d.informed() == n {
			break
		}
		if err = eng.RunSlot(); err != nil {
			break
		}
	}
	l.end(id)
	if err != nil {
		return nil, err
	}

	id = l.begin("cogcast.result", parent)
	res := &cogcast.Result{
		Slots:         eng.Slot(),
		AllInformed:   d.informed() == n,
		Parents:       make([]sim.NodeID, n),
		InformedSlots: make([]int, n),
	}
	for i, nd := range d.nodes {
		res.Parents[i] = nd.Parent()
		res.InformedSlots[i] = nd.InformedSlot()
	}
	l.end(id)
	t.cnt.slots += int64(res.Slots)
	t.cnt.nodeSlots += int64(n) * int64(res.Slots)
	return res, nil
}

func (d *castReplay) informed() int {
	count := 0
	for _, nd := range d.nodes {
		if nd.Informed() {
			count++
		}
	}
	return count
}

// broadcastResult converts a COGCAST result as crn.Network.Broadcast does.
func broadcastResult(res *cogcast.Result) *crn.BroadcastResult {
	out := &crn.BroadcastResult{
		Slots:         res.Slots,
		AllInformed:   res.AllInformed,
		Parents:       make([]crn.NodeID, len(res.Parents)),
		InformedSlots: res.InformedSlots,
	}
	for i, p := range res.Parents {
		out.Parents[i] = crn.NodeID(p)
	}
	if tr, err := tree.New(0, res.Parents); err == nil {
		out.TreeHeight = tr.Height()
	}
	return out
}

// phaseSpans name the slot loop of each COGCOMP phase.
var phaseSpans = [4]string{"sim.phase1", "sim.phase2", "sim.phase3", "sim.phase4"}

// aggReplay replays crn.Network.Aggregate with Sparse on and, when a trace
// buffer is given, Trace and Check on: cogcomp.Arena.Prepare, with its wrap
// hook interposing the step counters, then Engine.RunSlot over each phase's
// slot range. The trace recorder and the invariant checker are built here
// rather than by Prepare so that timing observers can wrap them.
type aggReplay struct {
	counts []countingProto
	cnt    *counters
	rec    timedObserver
	chk    timedObserver
	sink   countingSink
}

func (d *aggReplay) wrap(v sim.NodeID, nd *cogcomp.Node) sim.Protocol {
	d.counts[v] = countingProto{p: nd, c: d.cnt}
	return &d.counts[v]
}

func (d *aggReplay) run(t *tracer, parent int, asn sim.Assignment, inputs []int64, seed int64, buf *bytes.Buffer) (*crn.AggregateResult, error) {
	n := asn.Nodes()
	l := &t.log
	if len(d.counts) != n {
		d.counts = make([]countingProto, n)
	}
	d.cnt = &t.cnt
	f := aggfunc.Sum{}

	var (
		obs     sim.Observer
		sink    *trace.JSONL
		checker *invariant.Checker
	)
	if buf != nil {
		id := l.begin("trace.record", parent)
		sink = trace.NewJSONL(buf)
		sink.SetMeta(trace.Meta{
			Protocol:   "cogcomp",
			Nodes:      n,
			PerNode:    asn.PerNode(),
			MinOverlap: asn.MinOverlap(),
			Channels:   asn.Channels(),
			Seed:       seed,
			Collisions: sim.UniformWinner.String(),
		})
		d.sink = countingSink{next: sink}
		d.rec = timedObserver{next: trace.NewRecorder(&d.sink)}
		l.end(id)

		id = l.begin("invariant.check", parent)
		err := invariant.CheckAssignment(asn, 0)
		checker = new(invariant.Checker)
		checker.Reset(asn, sim.UniformWinner)
		d.chk = timedObserver{next: checker}
		l.end(id)
		if err != nil {
			return nil, fmt.Errorf("cogcomp: %w", err)
		}
		obs = sim.Tee(&d.rec, &d.chk)
	}

	id := l.begin("cogcomp.prepare", parent)
	nodes, eng, ph1, err := new(cogcomp.Arena).Prepare(asn, 0, inputs, seed, cogcomp.Config{Func: f, Sparse: true, Observer: obs}, d.wrap)
	l.end(id)
	if err != nil {
		return nil, err
	}

	maxSlots := cogcomp.DefaultMaxSlots(n, ph1)
	bounds := [5]int{0, ph1, ph1 + n, 2*ph1 + n, maxSlots}
	lengths := [4]int{ph1, n, ph1, 0}
	for p := 0; p < 4 && !eng.AllDone(); p++ {
		if sink != nil {
			d.sink.Emit(trace.PhaseEvent(bounds[p], p+1, lengths[p]))
		}
		first, rec0, chk0 := eng.Slot(), d.rec.ns, d.chk.ns
		id := l.begin(phaseSpans[p], parent)
		for !eng.AllDone() && eng.Slot() < bounds[p+1] && err == nil {
			err = eng.RunSlot()
		}
		l.end(id)
		if sink != nil {
			s := l.spans[id].start
			r, c := d.rec.ns-rec0, d.chk.ns-chk0
			l.add("trace.record", id, s, s+r)
			l.add("invariant.check", id, s+r, s+r+c)
		}
		t.cnt.phaseSlots[p] += int64(eng.Slot() - first)
		if err != nil {
			return nil, fmt.Errorf("cogcomp: %w (after %d slots; l=%d n=%d)", err, eng.Slot(), ph1, n)
		}
	}
	total := eng.Slot()
	t.cnt.slots += int64(total)
	t.cnt.nodeSlots += int64(n) * int64(total)
	if !eng.AllDone() {
		return nil, fmt.Errorf("cogcomp: %w (after %d slots; l=%d n=%d)", sim.ErrMaxSlots, total, ph1, n)
	}

	id = l.begin("cogcomp.result", parent)
	value := nodes[0].Aggregate()
	parents := make([]sim.NodeID, n)
	informed, mediators, maxMsg := 0, 0, 0
	for i, nd := range nodes {
		if nd.Informed() {
			informed++
		}
		parents[i] = nd.Parent()
		maxMsg = max(maxMsg, nd.MaxMessageSize())
		if nd.IsMediator() {
			mediators++
		}
	}
	complete := informed == n
	l.end(id)

	if sink != nil {
		id = l.begin("trace.record", parent)
		d.sink.Emit(trace.CensusEvent(total, informed, mediators))
		l.end(id)

		id = l.begin("invariant.check", parent)
		err = checker.Err()
		t.cnt.violations += int64(checker.Violations())
		if err == nil {
			infSlots := make([]int, n)
			for i, nd := range nodes {
				infSlots[i] = nd.InformedSlot()
			}
			err = invariant.CheckBroadcastTree(n, 0, parents, infSlots, complete)
		}
		if err == nil {
			err = invariant.CheckCensus(n, asn.Channels(), informed, mediators, complete)
		}
		if err == nil && complete {
			if want := aggfunc.Fold(f, inputs); !invariant.AggEqual(value, want) {
				err = fmt.Errorf("aggregate %v diverges from ground truth %v", value, want)
			}
		}
		l.end(id)
		if err != nil {
			return nil, fmt.Errorf("cogcomp: %w", err)
		}
	}
	if !complete {
		return nil, cogcomp.ErrIncomplete
	}
	if sink != nil {
		id = l.begin("trace.record", parent)
		sink.Finish()
		err = sink.Err()
		l.end(id)
		if err != nil {
			return nil, err
		}
		t.cnt.traceBytes += int64(buf.Len())
		t.cnt.traceEvents += d.sink.n
	}

	id = l.begin("crn.result", parent)
	out := &crn.AggregateResult{
		Value:          value,
		Slots:          total,
		Phase1Slots:    ph1,
		Phase2Slots:    n,
		Phase3Slots:    ph1,
		Phase4Slots:    max(0, total-(2*ph1+n)),
		Parents:        make([]crn.NodeID, n),
		MaxMessageSize: maxMsg,
	}
	for i, p := range parents {
		out.Parents[i] = crn.NodeID(p)
	}
	l.end(id)
	return out, nil
}
