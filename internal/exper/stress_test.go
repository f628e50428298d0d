package exper

import (
	"math/rand"
	"testing"
)

// TestParallelWorkerStress runs a randomized subset of the experiment
// registry at 1, 4 and 8 workers and diffs the rendered tables
// byte-for-byte: per-trial seeds are derived from the trial index alone
// and results merge in trial order, so worker count must never leak into
// the output. The subset is drawn from a seeded generator (deterministic
// per run of the test binary), and the test is cheap enough to run in
// short mode — its main value is under `go test -race`, where the three
// worker counts stress parallel.MapArena's arena handoff.
func TestParallelWorkerStress(t *testing.T) {
	all := All()
	// The scale sweep's single trials take seconds each; three worker counts
	// of it would dominate the race run, so it is left out here.
	for i := 0; i < len(all); i++ {
		if all[i].ID == "E28" {
			all = append(all[:i], all[i+1:]...)
			break
		}
	}
	rnd := rand.New(rand.NewSource(20260806))
	rnd.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	subset := all[:4]
	// Always include the recovery experiment: the supervisor's epoch
	// retries and fault wrappers only run under E26, and the race detector
	// should see that path across worker counts too.
	hasRecovery := false
	for _, e := range subset {
		if e.ID == "E26" {
			hasRecovery = true
		}
	}
	if !hasRecovery {
		e26, err := ByID("E26")
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, e26)
	}
	for _, e := range subset {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, workers := range []int{1, 4, 8} {
				tables, err := e.Run(Config{Seed: 11, Trials: 4, Quick: true, Parallel: workers})
				if err != nil {
					t.Fatalf("%s at %d workers: %v", e.ID, workers, err)
				}
				got := renderAll(t, tables)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s: tables at %d workers differ from serial run:\n--- %d workers ---\n%s\n--- serial ---\n%s",
						e.ID, workers, workers, got, want)
				}
			}
		})
	}
}
