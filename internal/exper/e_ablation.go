package exper

import (
	"fmt"

	"github.com/cogradio/crn/internal/assign"
	"github.com/cogradio/crn/internal/baseline"
	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/rng"
	"github.com/cogradio/crn/internal/sim"
	"github.com/cogradio/crn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Theorem 17: dynamic availability defeats deterministic broadcast",
		Claim: "Under the dynamic model with k < c, no algorithm can guarantee broadcast in finite time: an adversary re-arranging the source's labels starves a deterministic scanner forever, while randomized COGCAST is untouched.",
		Run:   runE15,
	})
	register(Experiment{
		ID:    "E16",
		Title: "Collision-model ablation (footnote 3)",
		Claim: "COGCAST's bound does not rely on the stronger all-delivered collision model: completion under the paper's one-winner model matches all-delivered within a small constant.",
		Run:   runE16,
	})
	register(Experiment{
		ID:    "E17",
		Title: "Phase-length constant κ ablation",
		Claim: "Theorem 4 is a w.h.p. statement: running COGCAST for κ·(c/k)·lg n fixed slots succeeds with probability approaching 1 as κ grows; the experiment locates the threshold.",
		Run:   runE17,
	})
}

func runE15(cfg Config) ([]*Table, error) {
	const n, c, k = 16, 8, 2
	budget := 200 * c // 200 full scan sweeps — far beyond any static completion time
	trials := cfg.trials()
	t := &Table{
		Title:   fmt.Sprintf("E15: deterministic scan vs COGCAST against the AntiScan adversary (n=%d, c=%d, k=%d, %d-slot budget)", n, c, k, budget),
		Claim:   "the scanner informs nobody; COGCAST completes every trial",
		Columns: []string{"algorithm", "trials", "completed", "median informed", "median slots (completed runs)"},
	}
	type advResult struct {
		scanComplete bool
		scanInformed float64
		cogComplete  bool
		cogSlots     float64
	}
	results, err := forTrials(cfg, trials, func(trial int, a *arena) (advResult, error) {
		var out advResult
		ts := rng.Derive(cfg.Seed, int64(trial), 150)
		adv, err := assign.NewAntiScan(n, c, k, nil, ts)
		if err != nil {
			return out, err
		}
		scan, err := baseline.DeterministicScan(adv, 0, "m", ts, budget)
		if err != nil {
			return out, err
		}
		out.scanComplete = scan.Complete
		out.scanInformed = float64(scan.Informed)

		// The same adversary cannot predict COGCAST's coin flips.
		cog, err := a.cast.Run(adv, 0, "m", ts, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: budget})
		if err != nil {
			return out, err
		}
		if cog.AllInformed {
			out.cogComplete = true
			out.cogSlots = float64(cog.Slots)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	scanInformed := make([]float64, 0, trials)
	scanCompleted := 0
	cogSlots := make([]float64, 0, trials)
	cogCompleted := 0
	for _, r := range results {
		if r.scanComplete {
			scanCompleted++
		}
		scanInformed = append(scanInformed, r.scanInformed)
		if r.cogComplete {
			cogCompleted++
			cogSlots = append(cogSlots, r.cogSlots)
		}
	}
	si, err := stats.Summarize(scanInformed)
	if err != nil {
		return nil, err
	}
	t.AddRow("deterministic scan", itoa(trials), itoa(scanCompleted), ftoa(si.Median), "-")
	if cogCompleted == 0 {
		return nil, fmt.Errorf("exper: COGCAST never completed against AntiScan")
	}
	cs, err := stats.Summarize(cogSlots)
	if err != nil {
		return nil, err
	}
	t.AddRow("COGCAST", itoa(trials), itoa(cogCompleted), ftoa(float64(n)), ftoa(cs.Median))
	if scanCompleted > 0 {
		t.AddNote("UNEXPECTED: the adversary failed to starve the deterministic scanner")
	} else {
		t.AddNote("the scanner's source never lands on a shared channel — only itself stays informed (median informed = 1)")
	}
	return []*Table{t}, nil
}

func runE16(cfg Config) ([]*Table, error) {
	const c, k, total = 8, 2, 24
	ns := []int{32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{32, 64}
	}
	t := &Table{
		Title:   "E16: COGCAST under one-winner vs all-delivered collisions (c=8, k=2, shared-core C=24)",
		Claim:   "the epidemic needs only one message per channel per slot; the models match within a constant",
		Columns: []string{"n", "one-winner median", "all-delivered median", "ratio"},
	}
	for _, n := range ns {
		seed := rng.Derive(cfg.Seed, int64(n), 160)
		run := func(model sim.CollisionModel, offset int64) (stats.Summary, error) {
			slots, err := forTrials(cfg, cfg.trials(), func(trial int, a *arena) (float64, error) {
				ts := rng.Derive(seed, int64(trial), offset)
				asn, err := a.assign.SharedCore(n, c, k, total, assign.LocalLabels, ts)
				if err != nil {
					return 0, err
				}
				budget := 64 * cogcast.SlotBound(n, c, k, cogcast.DefaultKappa)
				res, err := a.cast.Run(asn, 0, "m", ts, cogcast.RunConfig{
					UntilAllInformed: true, MaxSlots: budget, Engine: cogcast.Engine{Collisions: model},
				})
				if err != nil {
					return 0, err
				}
				if !res.AllInformed {
					return 0, fmt.Errorf("exper: incomplete under %v", model)
				}
				return float64(res.Slots), nil
			})
			if err != nil {
				return stats.Summary{}, err
			}
			return stats.Summarize(slots)
		}
		uw, err := run(sim.UniformWinner, 1)
		if err != nil {
			return nil, err
		}
		ad, err := run(sim.AllDelivered, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(n), ftoa(uw.Median), ftoa(ad.Median), ftoa(stats.Ratio(uw.Median, ad.Median)))
	}
	t.AddNote("a ratio near 1 shows Theorem 4 does not secretly rely on footnote 3's stronger model")
	return []*Table{t}, nil
}

func runE17(cfg Config) ([]*Table, error) {
	const n, c, k = 128, 16, 4
	kappas := []float64{0.25, 0.5, 1, 2, 4}
	trials := 60
	if cfg.Quick {
		trials = 20
	}
	t := &Table{
		Title:   fmt.Sprintf("E17: success probability of the fixed-horizon run vs κ (n=%d, c=%d, k=%d, partitioned)", n, c, k),
		Claim:   "P(all informed within κ·(c/k)·lg n slots) approaches 1 as κ grows",
		Columns: []string{"kappa", "horizon slots", "trials", "P(all informed)"},
	}
	for _, kappa := range kappas {
		horizon := cogcast.SlotBound(n, c, k, kappa)
		dones, err := forTrials(cfg, trials, func(trial int, a *arena) (bool, error) {
			ts := rng.Derive(cfg.Seed, int64(kappa*100), int64(trial), 170)
			asn, err := a.assign.Partitioned(n, c, k, assign.LocalLabels, ts)
			if err != nil {
				return false, err
			}
			res, err := a.cast.Run(asn, 0, "m", ts, cogcast.RunConfig{MaxSlots: horizon})
			if err != nil {
				return false, err
			}
			return res.AllInformed, nil
		})
		if err != nil {
			return nil, err
		}
		ok := 0
		for _, done := range dones {
			if done {
				ok++
			}
		}
		t.AddRow(ftoa(kappa), itoa(horizon), itoa(trials), ftoa(float64(ok)/float64(trials)))
	}
	t.AddNote("the library default κ = %v sits on the flat part of the curve", cogcast.DefaultKappa)
	return []*Table{t}, nil
}
