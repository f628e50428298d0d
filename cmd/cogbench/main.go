// Command cogbench runs the experiment suite that reproduces every
// analytical claim of the paper (see DESIGN.md for the per-experiment
// index) and renders the resulting tables.
//
// Examples:
//
//	cogbench                      # run everything, full sweeps
//	cogbench -exp E1,E6 -quick    # two experiments, reduced sweeps
//	cogbench -format markdown     # Markdown output (EXPERIMENTS.md source)
//	cogbench -parallel 8          # 8 trial workers; tables are identical
//	cogbench -bench-out BENCH_baseline.json   # machine-readable timings
//	cogbench -compare old.json new.json       # per-experiment benchmark delta
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/cogradio/crn/internal/exper"
	"github.com/cogradio/crn/internal/parallel"
	"github.com/cogradio/crn/internal/prof"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the suite's context: in-flight trials drain,
	// the tables rendered so far stay on stdout, trace files get their
	// cancel event and end-of-stream marker, and the process exits 130
	// (the shell convention for SIGINT). Other failures exit 1.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cogbench:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// run is runCtx without an interrupt context (tests call it directly).
func run(args []string, out io.Writer) error {
	return runCtx(context.Background(), args, out)
}

// benchRecord is one experiment's entry in the -bench-out report. Slots and
// Nodes difference the process-global sim counters around the experiment;
// SlotsPerSec (throughput) and BytesPerNode (allocated bytes amortized over
// every node instantiated) are derived from them at report time.
type benchRecord struct {
	ID           string  `json:"id"`
	WallMS       float64 `json:"wall_ms"`
	Slots        int64   `json:"slots"`
	Allocs       uint64  `json:"allocs"`
	Bytes        uint64  `json:"bytes"`
	Nodes        int64   `json:"nodes,omitempty"`
	SlotsPerSec  float64 `json:"slots_per_sec,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
}

// benchReport is the -bench-out file layout. Wall-clock shrinks with
// -parallel; slot counts are invariant (same trials, same seeds).
type benchReport struct {
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	Seed        int64         `json:"seed"`
	Trials      int           `json:"trials"`
	Quick       bool          `json:"quick"`
	Parallel    int           `json:"parallel"`
	Sparse      bool          `json:"sparse,omitempty"`
	Experiments []benchRecord `json:"experiments"`
	TotalWallMS float64       `json:"total_wall_ms"`
}

// round3 rounds wall-clock milliseconds to microsecond precision so the JSON
// fields read as clean decimals instead of accumulated float artifacts
// (9268.425, not 9268.425000000001).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func runCtx(ctx context.Context, args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("cogbench", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "all", "comma-separated experiment IDs (e.g. E1,E6) or 'all'")
		seed     = fs.Int64("seed", 42, "root seed")
		trials   = fs.Int("trials", 0, "trials per parameter point (0 = default)")
		quick    = fs.Bool("quick", false, "reduced sweeps")
		check    = fs.Bool("check", false, "replay every trial under the invariant oracle (package invariant); tables are unchanged, any violation fails the experiment")
		recov    = fs.Bool("recover", false, "route every COGCOMP trial through the crash-restart recovery supervisor (package recover); fault-free tables are byte-identical to the classic runner")
		format   = fs.String("format", "text", "output format: text, markdown or csv")
		list     = fs.Bool("list", false, "list experiments and exit")
		workers  = fs.Int("parallel", 0, "trial workers per experiment (0 = GOMAXPROCS, 1 = serial); tables are identical for every value")
		sparse   = fs.Bool("sparse", false, "event-driven stepping for the COGCOMP and session trials: skip dormant nodes instead of scanning all n each slot (sim.WithSparse); tables are identical either way")
		benchOut = fs.String("bench-out", "", "write a machine-readable JSON benchmark report (wall-clock, slots, allocs per experiment) to this file")
		compare  = fs.Bool("compare", false, "compare two -bench-out reports (old.json new.json as positional args), print the per-experiment delta table, and exit non-zero on regression")
		wallLmt  = fs.Float64("wall-limit", 2.0, "with -compare: fail if total wall-clock exceeds this multiple of the old report's (<= 0 disables; wall is machine-dependent)")
		allocLmt = fs.Float64("alloc-limit", 1.25, "with -compare: fail if any experiment's allocations exceed this multiple of the old report's (<= 0 disables)")
		spsLmt   = fs.Float64("slotsps-limit", 0, "with -compare: fail if total slots/sec falls below the old report's divided by this factor (<= 0 disables; throughput is machine-dependent)")
		bpnLmt   = fs.Float64("bytespn-limit", 0, "with -compare: fail if any experiment's bytes/node exceed this multiple of the old report's (<= 0 disables)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); an exceeded budget interrupts the current experiment at the next slot boundary")
		traceTo  = fs.String("trace", "", "record a JSONL event trace of the traced experiments to this file (forces serial trials; schema in TRACE.md)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare {
		return runCompare(fs.Args(), out, compareLimits{wall: *wallLmt, alloc: *allocLmt, slotsPS: *spsLmt, bytesPN: *bpnLmt})
	}

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); serr != nil && retErr == nil {
			retErr = serr
		}
	}()

	if *list {
		for _, e := range exper.All() {
			fmt.Fprintf(out, "%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var selected []exper.Experiment
	if *expList == "all" {
		selected = exper.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			e, err := exper.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	report := benchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seed:      *seed,
		Trials:    *trials,
		Quick:     *quick,
		Parallel:  *workers,
	}
	if report.Parallel <= 0 {
		report.Parallel = parallel.DefaultWorkers()
	}

	report.Sparse = *sparse
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := exper.Config{Seed: *seed, Trials: *trials, Quick: *quick, Parallel: *workers, Check: *check, Recover: *recov, Sparse: *sparse, Context: ctx}
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		sink := trace.NewJSONL(w)
		sink.SetMeta(trace.Meta{Protocol: "exper", Seed: *seed})
		cfg.Trace = sink
		report.Parallel = 1 // sinks force serial trials
		defer func() {
			// Even an interrupted run leaves a parseable trace: record the
			// interrupt as a cancel event, then the end-of-stream marker.
			var it *sim.Interrupted
			if errors.As(retErr, &it) {
				sink.Emit(trace.CancelEvent(it.Slots, errors.Is(it.Cause, context.DeadlineExceeded)))
			}
			sink.Finish()
			err := w.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = sink.Err()
			}
			if err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	for _, e := range selected {
		start := time.Now()
		slots0 := sim.SlotsExecuted()
		nodes0 := sim.NodesSimulated()
		var mem0 runtime.MemStats
		if *benchOut != "" {
			runtime.ReadMemStats(&mem0)
		}
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *benchOut != "" {
			var mem1 runtime.MemStats
			runtime.ReadMemStats(&mem1)
			rec := benchRecord{
				ID:     e.ID,
				WallMS: round3(float64(time.Since(start).Microseconds()) / 1000),
				Slots:  sim.SlotsExecuted() - slots0,
				Allocs: mem1.Mallocs - mem0.Mallocs,
				Bytes:  mem1.TotalAlloc - mem0.TotalAlloc,
				Nodes:  sim.NodesSimulated() - nodes0,
			}
			if rec.WallMS > 0 {
				rec.SlotsPerSec = round3(float64(rec.Slots) / (rec.WallMS / 1000))
			}
			if rec.Nodes > 0 {
				rec.BytesPerNode = round3(float64(rec.Bytes) / float64(rec.Nodes))
			}
			report.Experiments = append(report.Experiments, rec)
		}
		for _, t := range tables {
			var rerr error
			switch *format {
			case "markdown":
				rerr = t.Markdown(out)
			case "csv":
				rerr = t.CSV(out)
			case "text":
				rerr = t.Render(out)
			default:
				return fmt.Errorf("unknown format %q", *format)
			}
			if rerr != nil {
				return rerr
			}
		}
		if *format == "text" {
			fmt.Fprintf(out, "[%s finished in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if *benchOut != "" {
		for _, r := range report.Experiments {
			report.TotalWallMS += r.WallMS
		}
		report.TotalWallMS = round3(report.TotalWallMS)
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchmark report: %s (%d experiments, %.0f ms total)\n",
			*benchOut, len(report.Experiments), report.TotalWallMS)
	}
	return nil
}

func readReport(path string) (*benchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Experiments) == 0 {
		return nil, fmt.Errorf("%s: report has no experiments (not a -bench-out file?)", path)
	}
	for i, rec := range r.Experiments {
		if rec.ID == "" {
			return nil, fmt.Errorf("%s: experiment %d has no id", path, i)
		}
	}
	return &r, nil
}

// ratioCell formats new/old as a multiplier for the comparison table.
func ratioCell(newV, oldV float64) string {
	if oldV == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", newV/oldV)
}

// compareLimits carries -compare's regression thresholds. Zero (or negative)
// disables a check.
type compareLimits struct {
	// wall fails the comparison when total wall-clock exceeds wall times
	// the old report's.
	wall float64
	// alloc fails it when any experiment's allocation count exceeds alloc
	// times the old one.
	alloc float64
	// slotsPS fails it when total slot throughput falls below the old
	// report's divided by slotsPS — the throughput mirror of wall.
	slotsPS float64
	// bytesPN fails it when any experiment's bytes/node exceed bytesPN
	// times the old one — the per-node mirror of alloc.
	bytesPN float64
}

// runCompare renders the per-experiment delta between two -bench-out reports
// and returns an error (non-zero exit) when the new report regresses past the
// limits (see compareLimits). Limits <= 0 disable the respective check —
// wall-clock and slots/sec are only comparable between runs on the same
// machine, so CI compares allocations and bytes/node alone. Experiments
// present in only one report are listed but never fail the comparison.
func runCompare(paths []string, out io.Writer, limits compareLimits) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs exactly two report files: old.json new.json")
	}
	oldR, err := readReport(paths[0])
	if err != nil {
		return err
	}
	newR, err := readReport(paths[1])
	if err != nil {
		return err
	}
	oldBy := make(map[string]benchRecord, len(oldR.Experiments))
	for _, r := range oldR.Experiments {
		oldBy[r.ID] = r
	}
	t := &exper.Table{
		Title: fmt.Sprintf("benchmark comparison: %s -> %s", paths[0], paths[1]),
		Columns: []string{"experiment", "wall ms old", "wall ms new", "wall",
			"allocs old", "allocs new", "allocs", "bytes old", "bytes new", "bytes",
			"slots/s old", "slots/s new", "slots/s", "B/node old", "B/node new", "B/node"},
	}
	var regressions []string
	var oldAllocs, newAllocs, oldBytes, newBytes uint64
	var oldSlots, newSlots int64
	for _, n := range newR.Experiments {
		o, ok := oldBy[n.ID]
		if !ok {
			t.AddRow(n.ID, "-", fmt.Sprintf("%.1f", n.WallMS), "new",
				"-", fmt.Sprintf("%d", n.Allocs), "new", "-", fmt.Sprintf("%d", n.Bytes), "new",
				"-", fmt.Sprintf("%.0f", n.SlotsPerSec), "new", "-", fmt.Sprintf("%.0f", n.BytesPerNode), "new")
			continue
		}
		delete(oldBy, n.ID)
		oldAllocs += o.Allocs
		newAllocs += n.Allocs
		oldBytes += o.Bytes
		newBytes += n.Bytes
		oldSlots += o.Slots
		newSlots += n.Slots
		t.AddRow(n.ID,
			fmt.Sprintf("%.1f", o.WallMS), fmt.Sprintf("%.1f", n.WallMS), ratioCell(n.WallMS, o.WallMS),
			fmt.Sprintf("%d", o.Allocs), fmt.Sprintf("%d", n.Allocs), ratioCell(float64(n.Allocs), float64(o.Allocs)),
			fmt.Sprintf("%d", o.Bytes), fmt.Sprintf("%d", n.Bytes), ratioCell(float64(n.Bytes), float64(o.Bytes)),
			fmt.Sprintf("%.0f", o.SlotsPerSec), fmt.Sprintf("%.0f", n.SlotsPerSec), ratioCell(n.SlotsPerSec, o.SlotsPerSec),
			fmt.Sprintf("%.0f", o.BytesPerNode), fmt.Sprintf("%.0f", n.BytesPerNode), ratioCell(n.BytesPerNode, o.BytesPerNode))
		if limits.alloc > 0 && o.Allocs > 0 && float64(n.Allocs) > limits.alloc*float64(o.Allocs) {
			regressions = append(regressions,
				fmt.Sprintf("%s allocs %.2fx old (limit %.2fx)", n.ID, float64(n.Allocs)/float64(o.Allocs), limits.alloc))
		}
		if limits.bytesPN > 0 && o.BytesPerNode > 0 && n.BytesPerNode > limits.bytesPN*o.BytesPerNode {
			regressions = append(regressions,
				fmt.Sprintf("%s bytes/node %.2fx old (limit %.2fx)", n.ID, n.BytesPerNode/o.BytesPerNode, limits.bytesPN))
		}
	}
	for _, o := range oldR.Experiments {
		if _, removed := oldBy[o.ID]; removed {
			t.AddRow(o.ID, fmt.Sprintf("%.1f", o.WallMS), "-", "removed",
				fmt.Sprintf("%d", o.Allocs), "-", "removed", fmt.Sprintf("%d", o.Bytes), "-", "removed",
				fmt.Sprintf("%.0f", o.SlotsPerSec), "-", "removed", fmt.Sprintf("%.0f", o.BytesPerNode), "-", "removed")
		}
	}
	// Total throughput is recomputed from the matched experiments' slot and
	// wall sums rather than averaged per-experiment values.
	oldSPS, newSPS := 0.0, 0.0
	if oldR.TotalWallMS > 0 {
		oldSPS = float64(oldSlots) / (oldR.TotalWallMS / 1000)
	}
	if newR.TotalWallMS > 0 {
		newSPS = float64(newSlots) / (newR.TotalWallMS / 1000)
	}
	t.AddRow("total",
		fmt.Sprintf("%.1f", oldR.TotalWallMS), fmt.Sprintf("%.1f", newR.TotalWallMS), ratioCell(newR.TotalWallMS, oldR.TotalWallMS),
		fmt.Sprintf("%d", oldAllocs), fmt.Sprintf("%d", newAllocs), ratioCell(float64(newAllocs), float64(oldAllocs)),
		fmt.Sprintf("%d", oldBytes), fmt.Sprintf("%d", newBytes), ratioCell(float64(newBytes), float64(oldBytes)),
		fmt.Sprintf("%.0f", oldSPS), fmt.Sprintf("%.0f", newSPS), ratioCell(newSPS, oldSPS),
		"-", "-", "-")
	if limits.wall > 0 && oldR.TotalWallMS > 0 && newR.TotalWallMS > limits.wall*oldR.TotalWallMS {
		regressions = append(regressions,
			fmt.Sprintf("total wall %.2fx old (limit %.2fx)", newR.TotalWallMS/oldR.TotalWallMS, limits.wall))
	}
	if limits.slotsPS > 0 && oldSPS > 0 && newSPS < oldSPS/limits.slotsPS {
		regressions = append(regressions,
			fmt.Sprintf("total slots/sec %.2fx old (limit 1/%.2fx)", newSPS/oldSPS, limits.slotsPS))
	}
	var enabled []string
	if limits.alloc > 0 {
		enabled = append(enabled, fmt.Sprintf("per-experiment allocs %.2fx", limits.alloc))
	}
	if limits.bytesPN > 0 {
		enabled = append(enabled, fmt.Sprintf("per-experiment bytes/node %.2fx", limits.bytesPN))
	}
	if limits.wall > 0 {
		enabled = append(enabled, fmt.Sprintf("total wall %.2fx", limits.wall))
	}
	if limits.slotsPS > 0 {
		enabled = append(enabled, fmt.Sprintf("total slots/sec 1/%.2fx", limits.slotsPS))
	}
	if len(enabled) > 0 {
		t.AddNote("regression limits: %s", strings.Join(enabled, ", "))
	} else {
		t.AddNote("regression checks disabled")
	}
	if err := t.Render(out); err != nil {
		return err
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark regression: %s", strings.Join(regressions, "; "))
	}
	return nil
}
