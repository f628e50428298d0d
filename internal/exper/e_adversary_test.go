package exper

import (
	"bytes"
	"strings"
	"testing"
)

// TestAdversaryTournamentDeterminism pins E30's acceptance criterion: the
// ranked robustness tables are byte-identical at every -parallel setting
// (trial seeds derive from the trial index alone).
func TestAdversaryTournamentDeterminism(t *testing.T) {
	e, err := ByID("E30")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		tables, err := e.Run(Config{Seed: 7, Trials: 3, Quick: true, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tb := range tables {
			if err := tb.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	ref := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != ref {
			t.Errorf("parallel=%d changed E30 tables:\n%s\nvs\n%s", workers, got, ref)
		}
	}
	if !strings.Contains(ref, "CONFIRMED") {
		t.Errorf("E30 quick run did not confirm the crasher-vs-oblivious comparison:\n%s", ref)
	}
}
