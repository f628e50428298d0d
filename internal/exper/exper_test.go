package exper

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24", "E25", "E26", "E27", "E28", "E29", "E30"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s (numeric ordering)", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Claim == "" || all[i].Run == nil {
			t.Errorf("%s: incomplete metadata", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("e4")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "E4" {
		t.Errorf("ByID(e4).ID = %s", e.ID)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Claim:   "x grows",
		Columns: []string{"a", "bee"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("fit %.1f", 2.0)

	var text bytes.Buffer
	if err := tb.Render(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"demo", "claim: x grows", "333", "note: fit 2.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}

	var md bytes.Buffer
	if err := tb.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	mdOut := md.String()
	for _, want := range []string{"### demo", "| a | bee |", "| --- | --- |", "| 333 | 4 |", "> fit 2.0"} {
		if !strings.Contains(mdOut, want) {
			t.Errorf("Markdown output missing %q:\n%s", want, mdOut)
		}
	}
}

func TestConfigTrialsDefault(t *testing.T) {
	if (Config{}).trials() != DefaultTrials {
		t.Error("zero trials should default")
	}
	if (Config{Trials: 3}).trials() != 3 {
		t.Error("explicit trials ignored")
	}
}

// TestAllExperimentsQuick runs the entire suite in quick mode — the
// repository's end-to-end integration test: every claim-reproduction must
// execute, produce at least one populated table, and never report a
// violated bound.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(Config{Seed: 7, Trials: 3, Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tb.Title)
				}
				if len(tb.Columns) == 0 {
					t.Errorf("%s: table %q has no columns", e.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Errorf("%s: table %q row width %d != %d columns", e.ID, tb.Title, len(row), len(tb.Columns))
					}
					for _, cell := range row {
						if strings.Contains(cell, "VIOLATED") {
							t.Errorf("%s: bound violated in table %q", e.ID, tb.Title)
						}
					}
				}
				var sink bytes.Buffer
				if err := tb.Render(&sink); err != nil {
					t.Errorf("%s: render: %v", e.ID, err)
				}
			}
		})
	}
}

// TestE28SeedsDistinct: every point of E28's quick and full sweeps runs
// from a seed of its own; a point in both sweeps keeps one seed.
func TestE28SeedsDistinct(t *testing.T) {
	for _, root := range []int64{1, 7, 42} {
		owner := map[int64]scalePoint{}
		for _, quick := range []bool{true, false} {
			for _, p := range e28Points(quick) {
				s := p.seed(root)
				if q, ok := owner[s]; ok && q != p {
					t.Errorf("root %d: E28 points %v and %v share seed %d", root, q, p, s)
				}
				owner[s] = p
			}
		}
	}
}
