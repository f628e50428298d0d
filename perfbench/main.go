// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time and prints, as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond per-trial clocks. With --trace 1 the run is repeated
// with spans around every call into a layer, and the metrics split trial time
// across the repository's modules; the spans are written to --spans at exit.
// README.md lists the workloads, the metrics and what each should move.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload sweep-cast --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// An untraced run builds its fixed inputs at least minSetups times and
// until setupBudget of set-up time is measured; setup_s is the median. The
// budget gives the workloads whose set-up takes milliseconds enough
// repetitions for a steady median.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

// minTrials is the fewest trials a measurement phase runs, so that
// trial_cpu_ms.p90 has ten samples beyond it even on a slow machine.
const minTrials = 120

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input of the workload derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of trial time to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced, layer-split run")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.traced = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is set.
type report struct {
	w       io.Writer
	metrics map[string]metric
	err     error
}

func (r *report) set(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail(fmt.Errorf("metric %s is %v", name, value))
		return
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(r.w, "  %-28s %14.6g %-6s %s\n", name, value, unit, note)
}

func (r *report) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// tally accumulates the trials of one measurement phase.
type tally struct {
	ref       []uint64 // output digest of each input, from its first trial
	seen      []bool
	attempted int
	failed    int
	walls     []float64 // ms per trial
	cpus      []float64 // ms per trial
	rates     []float64 // verified trials per timed second, per pass
	cpuPer    []float64 // process CPU ms per trial, per pass
	firstErr  error
}

func newTally(pool int) *tally {
	return &tally{ref: make([]uint64, pool), seen: make([]bool, pool)}
}

// add folds in one pass over inputs, whose timed sections the meter grew
// by wall and cpu. A trial must reproduce the outputs of the first trial
// of the same input.
func (t *tally) add(inputs []int, recs []trialRec, wall, cpu time.Duration) {
	ok := 0
	for j, r := range recs {
		i := inputs[j]
		t.attempted++
		t.walls = append(t.walls, ms(r.wall))
		t.cpus = append(t.cpus, ms(r.cpu))
		err := r.err
		switch {
		case err != nil:
		case !t.seen[i]:
			t.ref[i], t.seen[i] = r.hash, true
		case r.hash != t.ref[i]:
			err = fmt.Errorf("input %d: outputs differ from the first trial of the same input", i)
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("trial %d: %w", t.attempted-1, err)
			}
			continue
		}
		ok++
	}
	t.rates = append(t.rates, float64(ok)/wall.Seconds())
	t.cpuPer = append(t.cpuPer, ms(cpu)/float64(len(recs)))
}

// digestHex folds the per-input digests into one printable value.
func (t *tally) digestHex() string {
	d := newDigest()
	for _, v := range t.ref {
		d.int(int64(v))
	}
	return fmt.Sprintf("%016x", d.sum())
}

// measure runs passes of window() consecutive inputs, cycling through the
// pool, until the meter has timed budget, at least minCount trials ran and
// every input ran once.
func measure(w workload, traced bool, t *tally, m *meter, budget time.Duration, minCount int) {
	pool, k := w.pool(), w.window()
	minCount = max(minCount, pool)
	inputs := make([]int, k)
	recs := make([]trialRec, k)
	for next := 0; m.wall < budget || t.attempted < minCount; next += k {
		for j := range inputs {
			inputs[j] = (next + j) % pool
		}
		wall, cpu := m.wall, m.procCPU
		w.pass(inputs, t.attempted, traced, m, recs)
		t.add(inputs, recs, m.wall-wall, m.procCPU-cpu)
	}
}

func execute(o options, out io.Writer) (*result, error) {
	if _, err := newWorkload(o.workload); err != nil {
		return nil, err
	}
	gc, err := probeReaders()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v %s nproc=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rep := &report{w: out, metrics: map[string]metric{}}
	var res *result
	if o.traced {
		res, err = executeTraced(o, gc, rep)
	} else {
		res, err = executeUntraced(o, gc, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.err != nil {
		return nil, rep.err
	}
	res.Metrics = rep.metrics
	return res, nil
}

func executeUntraced(o options, gc *gcReader, rep *report) (*result, error) {
	var (
		w      workload
		setups []float64
	)
	setupLog := &tracer{log: spanLog{epoch: time.Now()}}
	for total := time.Duration(0); len(setups) < minSetups || total < setupBudget; {
		var err error
		if w, err = newWorkload(o.workload); err != nil {
			return nil, err
		}
		runtime.GC()
		_, cpu := timeTrial(func() { err = w.setup(o.seed, false, setupLog) })
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpu.Seconds())
		total += cpu
	}

	// Start from a collected heap; trials then pay for the GC they cause.
	runtime.GC()
	t := newTally(w.pool())
	m := &meter{gc: gc}
	measure(w, false, t, m, seconds(o.seconds), minTrials)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	n := float64(t.attempted)
	ok := n - float64(t.failed)
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("thread CPU, median of %d set-ups", len(setups)))
	rep.set("trials_per_s", median(t.rates), "1/s", fmt.Sprintf("median of %d passes of %d trials; %d verified in %.3f s timed, %d worker(s)",
		len(t.rates), w.window(), int(ok), m.wall.Seconds(), w.workers()))
	setPercentile(rep, "trial_ms.p50", t.walls, 0.5)
	setPercentile(rep, "trial_cpu_ms.p50", t.cpus, 0.5)
	setPercentile(rep, "trial_cpu_ms.p90", t.cpus, 0.9)
	rep.set("cpu_ms_per_trial", median(t.cpuPer), "ms", fmt.Sprintf("getrusage(RUSAGE_SELF), median of %d passes", len(t.cpuPer)))
	rep.set("alloc_mb_per_trial", float64(m.gcTotal.allocBytes)/1e6/n, "MB", "")
	rep.set("peak_rss_mb", rss, "MiB", "")
	rep.set("pass_frac", ok/n, "frac", fmt.Sprintf("%d of %d", int(ok), t.attempted))
	return finish(rep.w, o.workload, t, nil), nil
}

func setPercentile(rep *report, name string, samples []float64, q float64) {
	v, err := percentile(samples, q)
	if err != nil {
		rep.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	rep.set(name, v, "ms", fmt.Sprintf("n=%d", len(samples)))
}

// finish prints the digest and the verdict. traced, when non-nil, is the
// traced phase of the same invocation, whose outputs must match t's.
func finish(out io.Writer, name string, t, traced *tally) *result {
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	fmt.Fprintf(out, "digest %s %s over %d inputs\n", name, t.digestHex(), len(t.ref))
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", t.firstErr)
	}
	if traced != nil {
		match := traced.digestHex() == t.digestHex()
		fmt.Fprintf(out, "digest %s %s traced (matches untraced: %v)\n", name, traced.digestHex(), match)
		res.Correct = res.Correct && traced.failed == 0 && match
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if traced.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %v\n", traced.firstErr)
		}
	}
	return res
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// spanTotals sums span time by name and self time by layer over the trials.
type spanTotals struct {
	dur      map[string]int64 // span name -> summed duration
	count    map[string]int   // span name -> spans
	selfName map[string]int64 // span name -> summed self time
	self     map[string]int64 // layer -> summed self time ("" = unattributed)
	trialDur int64
}

func sumSpans(logs []*spanLog) spanTotals {
	st := spanTotals{dur: map[string]int64{}, count: map[string]int{}, selfName: map[string]int64{}, self: map[string]int64{}}
	for _, l := range logs {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			st.dur[s.name] += s.end - s.start
			st.count[s.name]++
			if s.trial < 0 {
				continue // set-up spans count toward assign.build_ms only
			}
			st.selfName[s.name] += self[i]
			st.self[layer(s.name)] += self[i]
			if s.parent < 0 {
				st.trialDur += s.end - s.start
			}
		}
	}
	return st
}

// selfLayers are the modules whose self time is reported as self.<name>_ms;
// the self times of trace and invariant are trace.record_ms and
// invariant.check_ms.
var selfLayers = []string{"assign", "cogcast", "cogcomp", "sim", "crn"}

func executeTraced(o options, gc *gcReader, rep *report) (*result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	setupLog := &tracer{log: spanLog{epoch: time.Now(), trial: -1}}
	if err := w.setup(o.seed, true, setupLog); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// Untraced first, then traced, over the same inputs; each gets half of
	// the time.
	half := seconds(o.seconds / 2)
	runtime.GC()
	plain := newTally(w.pool())
	pm := &meter{gc: gc}
	measure(w, false, plain, pm, half, 0)
	runtime.GC()
	traced := newTally(w.pool())
	measure(w, true, traced, &meter{gc: gc}, half, 0)

	logs := []*spanLog{&setupLog.log}
	var cnt counters
	for _, tr := range w.tracers() {
		logs = append(logs, &tr.log)
		cnt.merge(&tr.cnt)
	}
	st := sumSpans(logs)
	trials := float64(cnt.trials)
	perTrial := func(ns int64) float64 { return float64(ns) / 1e6 / trials }
	plainN := float64(plain.attempted)

	if c := st.count["assign.build"]; c > 0 {
		rep.set("assign.build_ms", float64(st.dur["assign.build"])/1e6/float64(c), "ms", fmt.Sprintf("per build, %d builds", c))
	} else {
		rep.set("assign.build_ms", 0, "ms", "no builds")
	}
	rep.set("cogcast.init_ms", perTrial(st.dur["cogcast.init"]), "ms", "cogcast.Node.Reinit per trial")
	rep.set("cogcomp.prepare_ms", perTrial(st.dur["cogcomp.prepare"]), "ms", "cogcomp.Arena.Prepare per trial")
	rep.set("sim.reset_ms", perTrial(st.dur["sim.reset"]), "ms", "sim.NewEngine/Reset per trial")
	// Observer time sits inside the slot loop as child spans; the loop's
	// self time is the engine's and the protocol's share.
	loopNs := st.selfName["sim.slots"]
	for p := range phaseSpans {
		loopNs += st.selfName[phaseSpans[p]]
	}
	rep.set("sim.slots_ms", perTrial(loopNs), "ms", "Engine.RunSlot loop less observers, per trial")
	nsPerStep := 0.0
	if cnt.steps > 0 {
		nsPerStep = float64(loopNs) / float64(cnt.steps)
	}
	rep.set("sim.ns_per_step", nsPerStep, "ns", "")
	rep.set("sim.slots_per_trial", float64(cnt.slots)/trials, "count", "")
	rep.set("sim.node_slots_per_trial", float64(cnt.nodeSlots)/trials, "count", "")
	rep.set("sim.steps_per_trial", float64(cnt.steps)/trials, "count", "")
	rep.set("sim.deliveries_per_trial", float64(cnt.deliveries)/trials, "count", "")
	awake := 0.0
	if cnt.nodeSlots > 0 {
		awake = float64(cnt.steps) / float64(cnt.nodeSlots)
	}
	rep.set("sim.awake_frac", awake, "frac", "steps / node-slots")
	for p := range phaseSpans {
		rep.set(fmt.Sprintf("cogcomp.phase%d_ms", p+1), perTrial(st.dur[phaseSpans[p]]), "ms", "")
	}
	for p := range phaseSpans {
		rep.set(fmt.Sprintf("cogcomp.phase%d_slots", p+1), float64(cnt.phaseSlots[p])/trials, "count", "")
	}
	rep.set("trace.record_ms", perTrial(st.self["trace"]), "ms", "recorder and JSONL encoding per trial")
	rep.set("trace.bytes_per_trial", float64(cnt.traceBytes)/trials, "B", "")
	rep.set("trace.events_per_trial", float64(cnt.traceEvents)/trials, "count", "")
	rep.set("invariant.check_ms", perTrial(st.self["invariant"]), "ms", "oracle per trial")
	rep.set("invariant.violations", float64(cnt.violations), "count", "")
	var plainWall float64
	for _, v := range plain.walls {
		plainWall += v
	}
	rep.set("parallel.busy_frac", plainWall/(float64(w.workers())*ms(pm.wall)), "frac",
		fmt.Sprintf("trial time / (%d worker(s) x wall), untraced", w.workers()))
	rep.set("go.gc_cpu_ms_per_trial", ms(pm.gcTotal.cpu)/plainN, "ms", "untraced")
	rep.set("go.gc_cycles_per_trial", float64(pm.gcTotal.cycles)/plainN, "count", "untraced")
	for _, name := range selfLayers {
		rep.set("self."+name+"_ms", perTrial(st.self[name]), "ms", "self time per trial")
	}
	rep.set("self.unattributed_frac", float64(st.self[""])/float64(st.trialDur), "frac", "trial time in no named layer")
	tracedMs := perTrial(st.trialDur)
	plainMs := plainWall / plainN
	rep.set("spans.trial_ms", tracedMs, "ms", fmt.Sprintf("traced, %d trials", cnt.trials))
	rep.set("spans.untraced_trial_ms", plainMs, "ms", fmt.Sprintf("untraced, %d trials", plain.attempted))
	rep.set("spans.overhead_frac", tracedMs/plainMs-1, "frac", "traced / untraced trial time - 1")

	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, logs); err != nil {
		return nil, err
	}
	fmt.Fprintf(rep.w, "spans written to %s\n", path)
	return finish(rep.w, o.workload, plain, traced), nil
}
