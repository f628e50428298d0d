package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/cogradio/crn"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/invariant"
	"github.com/cogradio/crn/internal/parallel"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

// Every workload keeps n <= 512 and runs many trials of a few MB each: an
// earlier design resting on a few multi-second trials that each allocated
// ~200 MB measured memory-bandwidth and steal noise more than the program.
// Why each workload exists is in README.md.

// trialRec is one trial's timing and verdict.
type trialRec struct {
	wall, cpu time.Duration
	hash      uint64 // digest of the trial's outputs; zero when err != nil
	err       error
}

// workload runs trials over a fixed pool of inputs; trial i uses input
// i mod pool.
type workload interface {
	// setup builds the fixed inputs and warms every arena and worker. With
	// traced set it also builds what the traced run needs, recording the
	// spans of that set-up in t.
	setup(seed int64, traced bool, t *tracer) error
	// pass runs one trial on each of the inputs, numbering the trials from
	// first, and fills out in the same order. It opens the meter around
	// timed work only and verifies every output outside it. Traced passes
	// record spans and counts into the workload's tracers.
	pass(inputs []int, first int, traced bool, m *meter, out []trialRec)
	// pool is the number of fixed inputs; window is the number of trials
	// in one pass, a divisor of pool.
	pool() int
	window() int
	workers() int
	// tracers returns every tracer the traced passes wrote to.
	tracers() []*tracer
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "sweep-cast":
		return new(sweepCast), nil
	case "horizon-cast":
		return new(horizonCast), nil
	case "aggregate-sparse":
		return &aggregate{}, nil
	case "aggregate-observed":
		return &aggregate{observed: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-cast, horizon-cast, aggregate-sparse or aggregate-observed)", name)
}

var workloadNames = []string{"sweep-cast", "horizon-cast", "aggregate-sparse", "aggregate-observed"}

// Seed streams of the inputs a workload derives from --seed.
const (
	streamNetwork = 1
	streamTrial   = 2
	streamInput   = 3
	streamWarm    = 4
)

// digest hashes a trial's simulated outputs.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) sum() uint64 { return d.h.Sum64() }

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) ints(vs []int) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(v))
	}
}

func (d *digest) bytes(b []byte) {
	d.int(int64(len(b)))
	d.h.Write(b)
}

// timeTrial runs one trial (or one set-up) on a locked OS thread and returns
// its wall time and the CPU time of that thread.
func timeTrial(run func()) (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The readers were probed at start-up, so getrusage cannot fail here.
	c0, _ := threadCPU()
	t0 := time.Now()
	run()
	wall = time.Since(t0)
	c1, _ := threadCPU()
	return wall, c1 - c0
}

// serialPass is the pass of the single-caller workloads: each trial is timed
// on its own, and verified after the meter has stopped.
func serialPass[R any](inputs []int, first int, m *meter, out []trialRec, run func(i, trial int) (R, error), check func(i int, r R) (uint64, error)) {
	for j, i := range inputs {
		var (
			r   R
			err error
		)
		m.start()
		wall, cpu := timeTrial(func() { r, err = run(i, first+j) })
		m.stop()
		var h uint64
		if err == nil {
			h, err = check(i, r)
		}
		out[j] = trialRec{wall: wall, cpu: cpu, hash: h, err: err}
	}
}

// checkBroadcast verifies a COGCAST outcome: every node informed, and the
// distribution tree valid under the invariant oracle.
func checkBroadcast(r *crn.BroadcastResult) (uint64, error) {
	if !r.AllInformed {
		return 0, fmt.Errorf("broadcast left nodes uninformed after %d slots", r.Slots)
	}
	parents := make([]sim.NodeID, len(r.Parents))
	for i, p := range r.Parents {
		parents[i] = sim.NodeID(p)
	}
	if err := invariant.CheckBroadcastTree(len(parents), 0, parents, r.InformedSlots, true); err != nil {
		return 0, err
	}
	d := newDigest()
	d.int(int64(r.Slots))
	d.ints(r.Parents)
	d.ints(r.InformedSlots)
	return d.sum(), nil
}

// sweep-cast: COGCAST trials as internal/exper runs them, each building a
// fresh SharedCore assignment, on a parallel.MapArena pool of one worker per
// CPU.
const (
	sweepN, sweepC, sweepK, sweepTotal = 256, 16, 4, 48
	sweepPool, sweepWindow             = 256, 64
)

type sweepCast struct {
	seeds  []int64
	budget int
	arenas []*sweepArena
	next   atomic.Int32
}

// sweepArena is one worker's reusable state.
type sweepArena struct {
	b      assign.Builder
	cast   cogcast.Arena
	replay castReplay
	tr     tracer
}

func (w *sweepCast) pool() int    { return sweepPool }
func (w *sweepCast) window() int  { return sweepWindow }
func (w *sweepCast) workers() int { return len(w.arenas) }

func (w *sweepCast) tracers() []*tracer {
	ts := make([]*tracer, len(w.arenas))
	for i, a := range w.arenas {
		ts[i] = &a.tr
	}
	return ts
}

func (w *sweepCast) setup(seed int64, traced bool, t *tracer) error {
	w.seeds = make([]int64, sweepPool)
	for i := range w.seeds {
		w.seeds[i] = rng.Derive(seed, streamTrial, int64(i))
	}
	// exper's trial budget: far above the Theorem 4 bound, never reached.
	w.budget = 64 * cogcast.SlotBound(sweepN, sweepC, sweepK, cogcast.DefaultKappa)
	w.arenas = make([]*sweepArena, parallel.DefaultWorkers())
	for i := range w.arenas {
		a := &sweepArena{tr: tracer{log: spanLog{epoch: t.log.epoch}}}
		warm := rng.Derive(seed, streamWarm, int64(i))
		if err := a.verify(a.trial(warm, w.budget)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if traced {
			var scratch tracer
			if err := a.verify(a.tracedTrial(&scratch, warm, w.budget, -1)); err != nil {
				return fmt.Errorf("traced warm-up: %w", err)
			}
		}
		w.arenas[i] = a
	}
	return nil
}

func (a *sweepArena) trial(seed int64, budget int) (*cogcast.Result, error) {
	asn, err := a.b.SharedCore(sweepN, sweepC, sweepK, sweepTotal, assign.LocalLabels, seed)
	if err != nil {
		return nil, err
	}
	return a.cast.Run(asn, 0, "m", seed, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: budget})
}

func (a *sweepArena) tracedTrial(t *tracer, seed int64, budget, trial int) (res *cogcast.Result, err error) {
	t.inTrial(trial, func(root int) {
		id := t.log.begin("assign.build", root)
		asn, berr := a.b.SharedCore(sweepN, sweepC, sweepK, sweepTotal, assign.LocalLabels, seed)
		t.log.end(id)
		if err = berr; err == nil {
			res, err = a.replay.run(t, root, asn, seed, budget, true, false)
		}
	})
	return res, err
}

func (a *sweepArena) verify(res *cogcast.Result, err error) error {
	if err != nil {
		return err
	}
	_, err = checkBroadcast(broadcastResult(res))
	return err
}

type sweepOut struct {
	res       *cogcast.Result
	wall, cpu time.Duration
	err       error
}

func (w *sweepCast) pass(inputs []int, first int, traced bool, m *meter, out []trialRec) {
	w.next.Store(0)
	m.start()
	// Each worker takes one warm arena; a pass hands every arena back.
	res, err := parallel.MapArena(nil, len(inputs), len(w.arenas), func() *sweepArena {
		return w.arenas[w.next.Add(1)-1]
	}, func(j int, a *sweepArena) (sweepOut, error) {
		seed := w.seeds[inputs[j]]
		var o sweepOut
		o.wall, o.cpu = timeTrial(func() {
			if traced {
				o.res, o.err = a.tracedTrial(&a.tr, seed, w.budget, first+j)
			} else {
				o.res, o.err = a.trial(seed, w.budget)
			}
		})
		return o, nil
	})
	m.stop()
	for i := range out {
		o := res[i]
		if err != nil && o.err == nil && o.res == nil {
			o.err = err
		}
		var h uint64
		if o.err == nil {
			h, o.err = checkBroadcast(broadcastResult(o.res))
		}
		out[i] = trialRec{wall: o.wall, cpu: o.cpu, hash: h, err: o.err}
	}
}

// horizon-cast: crn.Network.Broadcast run to the fixed Theorem 4 horizon on
// Partitioned (Theorem 16) networks built during set-up; one caller.
const (
	horizonN, horizonC, horizonK = 256, 32, 2
	horizonPool, horizonWindow   = 64, 16
)

type horizonCast struct {
	nets   []*crn.Network
	asns   []sim.Assignment // the same networks for the traced run
	seeds  []int64
	replay castReplay
	tr     tracer
}

func (w *horizonCast) pool() int          { return horizonPool }
func (w *horizonCast) window() int        { return horizonWindow }
func (w *horizonCast) workers() int       { return 1 }
func (w *horizonCast) tracers() []*tracer { return []*tracer{&w.tr} }

func (w *horizonCast) setup(seed int64, traced bool, t *tracer) error {
	w.tr.log.epoch = t.log.epoch
	w.nets = make([]*crn.Network, horizonPool)
	w.seeds = make([]int64, horizonPool)
	for i := range w.nets {
		netSeed := rng.Derive(seed, streamNetwork, int64(i))
		nw, err := crn.NewNetwork(crn.Spec{
			Nodes: horizonN, ChannelsPerNode: horizonC, MinOverlap: horizonK,
			Topology: crn.Partitioned, Seed: netSeed,
		})
		if err != nil {
			return err
		}
		w.nets[i] = nw
		w.seeds[i] = rng.Derive(seed, streamTrial, int64(i))
		if traced {
			id := t.log.begin("assign.build", -1)
			asn, err := new(assign.Builder).Partitioned(horizonN, horizonC, horizonK, assign.LocalLabels, netSeed)
			t.log.end(id)
			if err != nil {
				return err
			}
			w.asns = append(w.asns, asn)
		}
	}
	return nil
}

func (w *horizonCast) trial(i, _ int) (*crn.BroadcastResult, error) {
	return w.nets[i].Broadcast(crn.BroadcastOptions{Payload: "m", Seed: w.seeds[i]})
}

func (w *horizonCast) tracedTrial(i, trial int) (out *crn.BroadcastResult, err error) {
	w.tr.inTrial(trial, func(root int) {
		maxSlots := cogcast.SlotBound(horizonN, horizonC, horizonK, cogcast.DefaultKappa)
		var res *cogcast.Result
		if res, err = w.replay.run(&w.tr, root, w.asns[i], w.seeds[i], maxSlots, false, true); err == nil {
			id := w.tr.log.begin("crn.result", root)
			out = broadcastResult(res)
			w.tr.log.end(id)
		}
	})
	return out, err
}

func (w *horizonCast) pass(inputs []int, first int, traced bool, m *meter, out []trialRec) {
	run := w.trial
	if traced {
		run = w.tracedTrial
	}
	serialPass(inputs, first, m, out, run, func(_ int, r *crn.BroadcastResult) (uint64, error) { return checkBroadcast(r) })
}

// aggregate-sparse and aggregate-observed: crn.Network.Aggregate (sum,
// Sparse on) on SharedCore networks built during set-up; one caller. The
// observed variant adds Trace, into one buffer reused across trials, and
// Check.
const (
	aggN, aggC, aggK, aggTotal = 512, 8, 4, 24
	aggPool, aggWindow         = 64, 16
)

type aggregate struct {
	observed bool
	nets     []*crn.Network
	asns     []sim.Assignment // the same networks for the traced run
	inputs   [][]int64
	want     []int64 // the benchmark's own sum of each input vector
	seeds    []int64
	buf      bytes.Buffer
	// summarized marks inputs whose trace stream trace.Summarize has
	// accepted; later trials of the input must reproduce its bytes, which
	// the digest check enforces.
	summarized []bool
	replay     aggReplay
	tr         tracer
}

func (w *aggregate) pool() int          { return aggPool }
func (w *aggregate) window() int        { return aggWindow }
func (w *aggregate) workers() int       { return 1 }
func (w *aggregate) tracers() []*tracer { return []*tracer{&w.tr} }

func (w *aggregate) setup(seed int64, traced bool, t *tracer) error {
	w.tr.log.epoch = t.log.epoch
	w.nets = make([]*crn.Network, aggPool)
	w.inputs = make([][]int64, aggPool)
	w.want = make([]int64, aggPool)
	w.seeds = make([]int64, aggPool)
	w.summarized = make([]bool, aggPool)
	for i := range w.nets {
		netSeed := rng.Derive(seed, streamNetwork, int64(i))
		nw, err := crn.NewNetwork(crn.Spec{
			Nodes: aggN, ChannelsPerNode: aggC, MinOverlap: aggK, TotalChannels: aggTotal,
			Topology: crn.SharedCore, Seed: netSeed,
		})
		if err != nil {
			return err
		}
		w.nets[i] = nw
		r := rng.New(seed, streamInput, int64(i))
		w.inputs[i] = make([]int64, aggN)
		for v := range w.inputs[i] {
			w.inputs[i][v] = r.Int63n(2001) - 1000
			w.want[i] += w.inputs[i][v]
		}
		w.seeds[i] = rng.Derive(seed, streamTrial, int64(i))
		if traced {
			id := t.log.begin("assign.build", -1)
			asn, err := new(assign.Builder).SharedCore(aggN, aggC, aggK, aggTotal, assign.LocalLabels, netSeed)
			t.log.end(id)
			if err != nil {
				return err
			}
			w.asns = append(w.asns, asn)
		}
	}
	return nil
}

func (w *aggregate) trial(i, _ int) (*crn.AggregateResult, error) {
	opts := crn.AggregateOptions{Func: "sum", Seed: w.seeds[i], Sparse: true}
	if w.observed {
		w.buf.Reset()
		opts.Trace = &w.buf
		opts.Check = true
	}
	return w.nets[i].Aggregate(w.inputs[i], opts)
}

func (w *aggregate) tracedTrial(i, trial int) (res *crn.AggregateResult, err error) {
	var buf *bytes.Buffer
	if w.observed {
		w.buf.Reset()
		buf = &w.buf
	}
	w.tr.inTrial(trial, func(root int) {
		res, err = w.replay.run(&w.tr, root, w.asns[i], w.inputs[i], w.seeds[i], buf)
	})
	return res, err
}

func (w *aggregate) check(i int, r *crn.AggregateResult) (uint64, error) {
	if v, ok := r.Value.(int64); !ok || v != w.want[i] {
		return 0, fmt.Errorf("aggregate %v, want the inputs' sum %d", r.Value, w.want[i])
	}
	d := newDigest()
	d.int(int64(r.Slots))
	d.ints([]int{r.Phase1Slots, r.Phase2Slots, r.Phase3Slots, r.Phase4Slots})
	d.ints(r.Parents)
	d.int(r.Value.(int64))
	if w.observed {
		d.bytes(w.buf.Bytes())
		if !w.summarized[i] {
			s, err := trace.Summarize(bytes.NewReader(w.buf.Bytes()))
			if err != nil {
				return 0, fmt.Errorf("trace: %w", err)
			}
			if !s.Complete || s.Cancel != nil {
				return 0, fmt.Errorf("trace stream not sealed and complete (complete=%v, canceled=%v)", s.Complete, s.Cancel != nil)
			}
			w.summarized[i] = true
		}
	}
	return d.sum(), nil
}

func (w *aggregate) pass(inputs []int, first int, traced bool, m *meter, out []trialRec) {
	run := w.trial
	if traced {
		run = w.tracedTrial
	}
	serialPass(inputs, first, m, out, run, w.check)
}
