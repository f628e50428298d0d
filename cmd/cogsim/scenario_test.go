package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cogradio/crn/internal/exper"
)

// stripAsserts drops the trailing "assert ..." lines a scenario run
// appends after the protocol report, leaving the part a flag-driven run
// would have printed.
func stripAsserts(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "assert ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// runOut executes run() and fails the test on error.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

// TestScenarioFlagByteIdentity: committed scenario files produce output
// byte-identical to the equivalent flag invocation, and that output is
// invariant across -parallel — the determinism contract of
// the scenario DSL.
func TestScenarioFlagByteIdentity(t *testing.T) {
	cases := []struct {
		scenario string
		flags    []string
		variants [][]string // flag variants that must also match byte for byte
	}{
		{
			"../../scenarios/broadcast_baseline.yaml",
			[]string{"-protocol", "cogcast", "-n", "64", "-c", "8", "-k", "2"},
			nil,
		},
		{
			"../../scenarios/broadcast_curve_1024.yaml",
			[]string{"-n", "1024", "-c", "12", "-k", "3", "-curve"},
			nil,
		},
		{
			"../../scenarios/repeat_percentiles.yaml",
			[]string{"-repeat", "8"},
			[][]string{
				{"-repeat", "8", "-parallel", "1"},
				{"-repeat", "8", "-parallel", "4"},
			},
		},
		{
			"../../scenarios/jam_random.yaml",
			[]string{"-jam", "random", "-jamk", "3", "-n", "32", "-c", "16"},
			nil,
		},
		{
			"../../scenarios/recover_outage_churn.yaml",
			[]string{"-protocol", "cogcomp", "-recover", "-outage", "0.002", "-n", "48"},
			nil,
		},
		{
			"../../scenarios/jam_reactive_busiest.yaml",
			[]string{"-adversary", "busiest", "-energy", "120", "-energy-slot", "3", "-n", "32", "-c", "16"},
			nil,
		},
		{
			"../../scenarios/recover_phase_crasher.yaml",
			[]string{"-protocol", "cogcomp", "-recover", "-adversary", "crasher", "-energy", "60", "-n", "48"},
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.scenario), func(t *testing.T) {
			fromFile := stripAsserts(runOut(t, "run", tc.scenario))
			fromFlags := runOut(t, tc.flags...)
			if fromFile != fromFlags {
				t.Fatalf("scenario and flag outputs differ:\n--- scenario\n%s--- flags\n%s", fromFile, fromFlags)
			}
			for _, v := range tc.variants {
				if got := runOut(t, v...); got != fromFlags {
					t.Fatalf("output varies with %v:\n--- variant\n%s--- base\n%s", v, got, fromFlags)
				}
			}
		})
	}
}

// TestScenarioSparseFileTwin: the same scenario with engine.sparse false and
// true produces byte-identical output, and likewise for the -sparse flag —
// event-driven stepping is a pure wall-clock optimisation. This is the small
// CLI twin of scenarios/aggregate_sparse_scale.yaml, which exercises the same
// toggle at 8192 nodes under make scenario-check.
func TestScenarioSparseFileTwin(t *testing.T) {
	dir := t.TempDir()
	const body = `
name: sparse-twin
topology:
  nodes: 512
  channels_per_node: 8
  min_overlap: 2
  generator: shared-core
protocol:
  name: cogcomp
  aggregate: sum
engine:
  sparse: %SPARSE%
`
	var outs []string
	for _, sparse := range []string{"false", "true"} {
		path := filepath.Join(dir, "sparse_"+sparse+".yaml")
		doc := strings.ReplaceAll(body, "%SPARSE%", sparse)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, runOut(t, "run", path))
	}
	if outs[0] != outs[1] {
		t.Fatalf("sparse vs dense scenario differ:\n--- dense\n%s--- sparse\n%s", outs[0], outs[1])
	}
	flags := []string{"-protocol", "cogcomp", "-n", "512", "-c", "8", "-k", "2", "-agg", "sum"}
	dense := runOut(t, flags...)
	sparse := runOut(t, append(append([]string{}, flags...), "-sparse")...)
	if dense != sparse {
		t.Fatalf("-sparse flag changes output:\n--- dense\n%s--- sparse\n%s", dense, sparse)
	}
}

// TestScenarioTraceByteIdentity: a traced scenario run writes a JSONL
// trace byte-identical to the flag invocation's, for both protocols.
func TestScenarioTraceByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, protocol string
		flags          []string
	}{
		{"cogcast", "cogcast", []string{"-protocol", "cogcast", "-n", "32", "-c", "8", "-k", "2"}},
		{"cogcomp", "cogcomp", []string{"-protocol", "cogcomp", "-n", "32", "-c", "8", "-k", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scenarioTrace := filepath.Join(dir, tc.name+"_scenario.jsonl")
			flagTrace := filepath.Join(dir, tc.name+"_flags.jsonl")
			doc := strings.Join([]string{
				"name: trace-twin",
				"topology:",
				"  nodes: 32",
				"  channels_per_node: 8",
				"  min_overlap: 2",
				"  generator: shared-core",
				"protocol:",
				"  name: " + tc.protocol,
				"engine:",
				"  trace: " + scenarioTrace,
				"",
			}, "\n")
			path := filepath.Join(dir, tc.name+".yaml")
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			fileOut := runOut(t, "run", path)
			flagOut := runOut(t, append(tc.flags, "-trace", flagTrace)...)

			fromFile, err := os.ReadFile(scenarioTrace)
			if err != nil {
				t.Fatal(err)
			}
			fromFlags, err := os.ReadFile(flagTrace)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fromFile, fromFlags) {
				t.Fatalf("trace files differ (%d vs %d bytes)", len(fromFile), len(fromFlags))
			}
			// Stdout is identical except for the trace path each run names.
			norm := func(s, path string) string { return strings.ReplaceAll(s, path, "X") }
			if norm(fileOut, scenarioTrace) != norm(flagOut, flagTrace) {
				t.Fatalf("stdout differs:\n--- scenario\n%s--- flags\n%s", fileOut, flagOut)
			}
		})
	}
}

// TestScenarioExperimentTwin: an experiment scenario renders exactly the
// tables a direct exper run produces.
func TestScenarioExperimentTwin(t *testing.T) {
	got := runOut(t, "run", "../../scenarios/experiment_e1_quick.yaml")

	e, err := exper.ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(exper.Config{Seed: 42, Trials: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&want); err != nil {
			t.Fatal(err)
		}
	}
	if got != want.String() {
		t.Fatalf("experiment scenario differs from direct run:\n--- scenario\n%s--- direct\n%s", got, want.String())
	}
}

// TestValidateCommand covers the validate subcommand: ok lines, the
// -canonical form re-parsing, and argument errors.
func TestValidateCommand(t *testing.T) {
	out := runOut(t, "validate", "../../scenarios/broadcast_baseline.yaml")
	want := "ok: ../../scenarios/broadcast_baseline.yaml (broadcast-baseline)\n"
	if out != want {
		t.Errorf("validate output = %q, want %q", out, want)
	}

	canon := runOut(t, "validate", "-canonical", "../../scenarios/broadcast_baseline.yaml")
	dir := t.TempDir()
	path := filepath.Join(dir, "canon.yaml")
	if err := os.WriteFile(path, []byte(canon), 0o644); err != nil {
		t.Fatal(err)
	}
	recanon := runOut(t, "validate", "-canonical", path)
	if recanon != canon {
		t.Errorf("canonical form is not a fixed point through the CLI")
	}

	var buf bytes.Buffer
	if err := run([]string{"validate"}, &buf); err == nil || err.Error() != "validate: need at least one scenario file" {
		t.Errorf("validate with no files: err = %v", err)
	}
	if err := run([]string{"run"}, &buf); err == nil || err.Error() != "run: need at least one scenario file" {
		t.Errorf("run with no files: err = %v", err)
	}
}

// TestRunAssertionFailure: a failing assertion prints FAILED and makes the
// run subcommand return an error (non-zero exit in main).
func TestRunAssertionFailure(t *testing.T) {
	dir := t.TempDir()
	doc := `
name: too-strict
topology:
  nodes: 64
  channels_per_node: 8
  min_overlap: 2
  generator: shared-core
protocol:
  name: cogcast
assertions:
  - kind: completed-by
    slots: 1
  - kind: all-informed
`
	path := filepath.Join(dir, "strict.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"run", path}, &buf)
	if err == nil {
		t.Fatal("run succeeded despite a failing assertion")
	}
	if want := "scenario too-strict: 1 of 2 assertions failed"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if !strings.Contains(buf.String(), "assert completed-by: FAILED") {
		t.Errorf("output lacks the FAILED line:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "assert all-informed: ok") {
		t.Errorf("output lacks the passing line:\n%s", buf.String())
	}
}

// TestRunRejectsInvalidFile: load errors carry the file path and the
// scenario-flavored message.
func TestRunRejectsInvalidFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(path, []byte("name: x\nprotocol:\n  name: flood\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"run", path}, &buf)
	want := path + `: scenario: protocol.name: unknown protocol "flood"`
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
