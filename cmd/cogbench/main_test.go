package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, id := range []string{"E1", "E12", "E19"} {
		if !strings.Contains(s, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunSingleExperimentText(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E12", "-quick", "-trials", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "E12") || !strings.Contains(s, "finished in") {
		t.Errorf("output = %q", s)
	}
}

func TestRunMarkdown(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e6", "-quick", "-format", "markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "### E6") {
		t.Errorf("markdown output = %q", out.String())
	}
}

func TestRunCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E12", "-quick", "-trials", "2", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "m contenders,") {
		t.Errorf("csv output = %q", s)
	}
}

func TestMultipleExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E6, E7", "-quick", "-trials", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "E6:") || !strings.Contains(s, "E7a:") {
		t.Errorf("output = %q", s)
	}
}

func TestParallelFlagDeterministic(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-exp", "E12", "-quick", "-trials", "4", "-format", "csv", "-parallel", workers}
	}
	var serial, par bytes.Buffer
	if err := run(args("1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(args("8"), &par); err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("tables differ across worker counts:\nserial:\n%s\nparallel:\n%s", serial.String(), par.String())
	}
}

func TestBenchOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-exp", "E3", "-quick", "-trials", "2", "-bench-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		GoVersion   string `json:"go_version"`
		Parallel    int    `json:"parallel"`
		Experiments []struct {
			ID           string  `json:"id"`
			WallMS       float64 `json:"wall_ms"`
			Slots        int64   `json:"slots"`
			Nodes        int64   `json:"nodes"`
			SlotsPerSec  float64 `json:"slots_per_sec"`
			BytesPerNode float64 `json:"bytes_per_node"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("bench-out is not valid JSON: %v", err)
	}
	if report.GoVersion == "" || report.Parallel < 1 {
		t.Errorf("report metadata incomplete: %+v", report)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "E3" {
		t.Fatalf("experiments = %+v", report.Experiments)
	}
	rec := report.Experiments[0]
	if rec.Slots <= 0 {
		t.Errorf("E3 slot count = %d, want > 0", rec.Slots)
	}
	if rec.Nodes <= 0 || rec.SlotsPerSec <= 0 || rec.BytesPerNode <= 0 {
		t.Errorf("E3 derived metrics incomplete: nodes=%d slots/s=%.1f B/node=%.1f",
			rec.Nodes, rec.SlotsPerSec, rec.BytesPerNode)
	}
	if !strings.Contains(out.String(), "benchmark report:") {
		t.Errorf("missing report line in output: %q", out.String())
	}
}

func writeReport(t *testing.T, name string, r benchReport) string {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	oldPath := writeReport(t, "old.json", benchReport{
		TotalWallMS: 1000,
		Experiments: []benchRecord{
			{ID: "E1", WallMS: 600, Allocs: 1000, Bytes: 4000},
			{ID: "E2", WallMS: 400, Allocs: 2000, Bytes: 8000},
			{ID: "E9", WallMS: 50, Allocs: 10, Bytes: 100},
		},
	})
	newPath := writeReport(t, "new.json", benchReport{
		TotalWallMS: 900,
		Experiments: []benchRecord{
			{ID: "E1", WallMS: 500, Allocs: 250, Bytes: 1000},
			{ID: "E2", WallMS: 400, Allocs: 2100, Bytes: 8000},
			{ID: "E3", WallMS: 10, Allocs: 5, Bytes: 50},
		},
	})

	// Within limits: an improvement, a 1.05x wobble, one added and one
	// removed experiment (informational, never failures).
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, &out); err != nil {
		t.Fatalf("compare within limits failed: %v", err)
	}
	s := out.String()
	for _, want := range []string{"0.25x", "new", "removed", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("comparison table missing %q:\n%s", want, s)
		}
	}

	// Reversed, the 4x alloc growth on E1 must fail the default 1.25x limit.
	out.Reset()
	err := run([]string{"-compare", newPath, oldPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "E1 allocs") {
		t.Errorf("reversed compare: want E1 alloc regression, got %v", err)
	}

	// Disabling the alloc check clears it (wall improved, so no wall failure).
	out.Reset()
	if err := run([]string{"-compare", "-alloc-limit", "0", "-wall-limit", "2", newPath, oldPath}, &out); err != nil {
		t.Errorf("compare with alloc check disabled failed: %v", err)
	}

	// Wall regression: same allocs, total wall beyond the limit.
	slowPath := writeReport(t, "slow.json", benchReport{
		TotalWallMS: 5000,
		Experiments: []benchRecord{{ID: "E1", WallMS: 5000, Allocs: 1000, Bytes: 4000}},
	})
	basePath := writeReport(t, "base.json", benchReport{
		TotalWallMS: 1000,
		Experiments: []benchRecord{{ID: "E1", WallMS: 1000, Allocs: 1000, Bytes: 4000}},
	})
	out.Reset()
	err = run([]string{"-compare", basePath, slowPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "total wall") {
		t.Errorf("want total wall regression, got %v", err)
	}
}

func TestCompareThroughputLimits(t *testing.T) {
	oldPath := writeReport(t, "old.json", benchReport{
		TotalWallMS: 1000,
		Experiments: []benchRecord{
			{ID: "E1", WallMS: 1000, Allocs: 100, Bytes: 4000, Slots: 100_000, SlotsPerSec: 100_000, BytesPerNode: 100},
		},
	})
	newPath := writeReport(t, "new.json", benchReport{
		TotalWallMS: 1000,
		Experiments: []benchRecord{
			{ID: "E1", WallMS: 1000, Allocs: 100, Bytes: 4000, Slots: 40_000, SlotsPerSec: 40_000, BytesPerNode: 220},
		},
	})

	// Both throughput checks are off by default: machine-dependent metrics
	// must not fail CI comparisons unless explicitly armed.
	var out bytes.Buffer
	if err := run([]string{"-compare", oldPath, newPath}, &out); err != nil {
		t.Fatalf("default compare armed a throughput check: %v", err)
	}
	s := out.String()
	for _, want := range []string{"slots/s", "B/node", "100000", "220"} {
		if !strings.Contains(s, want) {
			t.Errorf("comparison table missing %q:\n%s", want, s)
		}
	}

	// A 2.2x bytes/node growth fails an armed 1.5x limit.
	out.Reset()
	err := run([]string{"-compare", "-bytespn-limit", "1.5", oldPath, newPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "E1 bytes/node") {
		t.Errorf("want bytes/node regression, got %v", err)
	}

	// Throughput dropped to 0.4x: below old/2, so -slotsps-limit 2 fails.
	out.Reset()
	err = run([]string{"-compare", "-slotsps-limit", "2", oldPath, newPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "total slots/sec") {
		t.Errorf("want slots/sec regression, got %v", err)
	}

	// A drop within the armed factor passes.
	out.Reset()
	if err := run([]string{"-compare", "-slotsps-limit", "3", "-bytespn-limit", "2.5", oldPath, newPath}, &out); err != nil {
		t.Errorf("compare within armed throughput limits failed: %v", err)
	}
}

func TestCompareErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-compare", "one.json"}, &out); err == nil {
		t.Error("compare with one file accepted")
	}
	if err := run([]string{"-compare", "/nonexistent/a.json", "/nonexistent/b.json"}, &out); err == nil {
		t.Error("compare with missing files accepted")
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-exp", "E12", "-format", "tsv"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestCheckFlagIdenticalTables(t *testing.T) {
	// The invariant oracle observes; it must never change a table.
	var plain, checked bytes.Buffer
	if err := run([]string{"-exp", "E3", "-quick", "-trials", "2", "-format", "csv"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "E3", "-quick", "-trials", "2", "-format", "csv", "-check"}, &checked); err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if plain.String() != checked.String() {
		t.Errorf("-check changed tables:\n--- checked ---\n%s--- plain ---\n%s", checked.String(), plain.String())
	}
}

func TestRunRecoverByteIdentical(t *testing.T) {
	// -recover must not change a fault-free experiment's table by a byte.
	render := func(extra ...string) string {
		var out bytes.Buffer
		args := append([]string{"-exp", "E4", "-quick", "-trials", "2"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		// Strip the wall-clock line, which legitimately differs.
		lines := strings.Split(out.String(), "\n")
		kept := lines[:0]
		for _, ln := range lines {
			if !strings.Contains(ln, "finished in") {
				kept = append(kept, ln)
			}
		}
		return strings.Join(kept, "\n")
	}
	if classic, rec := render(), render("-recover"); classic != rec {
		t.Errorf("-recover changed E4's table:\n--- classic ---\n%s\n--- recover ---\n%s", classic, rec)
	}
}

func TestRunRecoveryExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E26,E27", "-quick", "-trials", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "E26") || !strings.Contains(s, "E27") {
		t.Errorf("output = %q", s)
	}
}
