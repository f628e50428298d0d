package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/metrics"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun is the fixed small COGCAST run behind the golden trace: every
// line of testdata/cogcast_small.jsonl comes from these parameters.
func goldenRun(sink trace.Sink, obs sim.Observer) (*cogcast.Result, error) {
	asn, err := assign.SharedCore(8, 4, 2, 12, assign.LocalLabels, 7)
	if err != nil {
		return nil, err
	}
	return cogcast.Run(asn, 0, "INIT", 7, cogcast.RunConfig{
		UntilAllInformed: true,
		Engine:           cogcast.Engine{Trace: sink, Observer: obs},
	})
}

// TestGoldenCogcastTrace pins the on-disk format end to end: a seeded run
// must reproduce testdata/cogcast_small.jsonl byte for byte. A diff here
// means either determinism broke or the schema changed — the latter is
// fine if intentional, but requires a TRACE.md update (and a version bump
// for renames/retypes) alongside `go test ./internal/trace -update`.
func TestGoldenCogcastTrace(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	sink.SetMeta(trace.Meta{
		Protocol: "cogcast", Nodes: 8, PerNode: 4, MinOverlap: 2,
		Channels: 12, Seed: 7, Collisions: sim.UniformWinner.String(),
	})
	if _, err := goldenRun(sink, nil); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "cogcast_small.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s (re-run with -update if the schema change is intentional)\ngot:\n%swant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestSummaryMatchesLiveCollector is the consistency check behind cogsim
// -trace-summary: folding a trace back through Summarize must reproduce
// exactly the Metrics a live collector attached to the same run reported.
func TestSummaryMatchesLiveCollector(t *testing.T) {
	col := &metrics.Collector{}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	sink.SetMeta(trace.Meta{Protocol: "cogcast", Nodes: 8, Seed: 7})
	if _, err := goldenRun(sink, col); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics != col.Snapshot() {
		t.Errorf("replayed metrics %+v differ from live collector %+v", s.Metrics, col.Snapshot())
	}
}

// TestTraceDoesNotChangeResults pins the package's core promise: attaching
// a sink must not perturb the run — same slots, same tree, same informed
// times as the untraced execution.
func TestTraceDoesNotChangeResults(t *testing.T) {
	plain, err := goldenRun(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := goldenRun(trace.NewRing(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}
