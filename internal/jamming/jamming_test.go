package jamming_test

import (
	"testing"

	"github.com/cogradio/crn/internal/cogcast"
	"github.com/cogradio/crn/internal/jamming"
	"github.com/cogradio/crn/internal/sim"
)

func TestAssignmentValidation(t *testing.T) {
	j := jamming.NoJammer{}
	cases := []struct {
		name       string
		n, c, kJam int
		jammer     jamming.Jammer
	}{
		{"zero nodes", 0, 8, 1, j},
		{"zero channels", 4, 0, 0, j},
		{"budget at c/2", 4, 8, 4, j},
		{"budget above c/2", 4, 8, 5, j},
		{"negative budget", 4, 8, -1, j},
		{"nil jammer", 4, 8, 1, nil},
	}
	for _, c := range cases {
		if _, err := jamming.NewAssignment(c.n, c.c, c.kJam, c.jammer, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestUnjammedSetsRespectBudgetAndOverlap(t *testing.T) {
	const n, c, kJam = 6, 10, 3
	jammers := []jamming.Jammer{
		jamming.NewRandomJammer(c, kJam, 5),
		jamming.NewSweepJammer(c, kJam),
		jamming.NewBlockSweepJammer(c, kJam, 4),
		jamming.NewSplitJammer(c, kJam, 3),
	}
	for _, j := range jammers {
		t.Run(j.Name(), func(t *testing.T) {
			asn, err := jamming.NewAssignment(n, c, kJam, j, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := asn.MinOverlap(), c-2*kJam; got != want {
				t.Fatalf("MinOverlap = %d, want %d", got, want)
			}
			for slot := 0; slot < 30; slot++ {
				sets := make([][]int, n)
				for u := 0; u < n; u++ {
					set := asn.ChannelSet(sim.NodeID(u), slot)
					if len(set) < c-kJam {
						t.Fatalf("slot %d node %d has %d channels, want >= c-kJam = %d", slot, u, len(set), c-kJam)
					}
					seen := make(map[int]bool)
					for _, ch := range set {
						if ch < 0 || ch >= c {
							t.Fatalf("channel %d out of range", ch)
						}
						if seen[ch] {
							t.Fatalf("duplicate channel %d", ch)
						}
						seen[ch] = true
					}
					sets[u] = append([]int(nil), set...)
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if got := overlap(sets[u], sets[v]); got < asn.MinOverlap() {
							t.Fatalf("slot %d: overlap(%d,%d) = %d < %d", slot, u, v, got, asn.MinOverlap())
						}
					}
				}
			}
		})
	}
}

func TestJammedChannelsExcluded(t *testing.T) {
	const n, c, kJam = 4, 8, 2
	j := jamming.NewSweepJammer(c, kJam)
	asn, err := jamming.NewAssignment(n, c, kJam, j, 7)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 10; slot++ {
		jammed := map[int]bool{}
		for _, ch := range j.Jammed(slot, 0) {
			jammed[ch] = true
		}
		set := asn.ChannelSet(0, slot)
		for _, ch := range set {
			if jammed[ch] {
				t.Fatalf("slot %d: jammed channel %d present in node set", slot, ch)
			}
		}
		if len(set) != c-kJam {
			t.Fatalf("slot %d: set size %d, want %d", slot, len(set), c-kJam)
		}
	}
}

func TestCogcastSurvivesJamming(t *testing.T) {
	// Theorem 18: COGCAST completes in the jammed network with the
	// guarantees of T(n, c, c-2·kJam). Run under every adversary.
	const n, c, kJam = 32, 8, 3
	jammers := []jamming.Jammer{
		jamming.NoJammer{},
		jamming.NewRandomJammer(c, kJam, 9),
		jamming.NewSweepJammer(c, kJam),
		jamming.NewBlockSweepJammer(c, kJam, 6),
		jamming.NewSplitJammer(c, kJam, 4),
	}
	for _, j := range jammers {
		t.Run(j.Name(), func(t *testing.T) {
			asn, err := jamming.NewAssignment(n, c, kJam, j, 9)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cogcast.Run(asn, 0, "m", 9, cogcast.RunConfig{UntilAllInformed: true, MaxSlots: 50000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("broadcast defeated by %s jammer after %d slots", j.Name(), res.Slots)
			}
		})
	}
}

func TestSplitJammerIsNUniform(t *testing.T) {
	// Nodes in different groups must see different jammed sets in the same
	// slot — that is what distinguishes n-uniform from plain jamming.
	j := jamming.NewSplitJammer(12, 2, 3)
	a := append([]int(nil), j.Jammed(0, 0)...)
	b := append([]int(nil), j.Jammed(0, 1)...)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("split jammer jams identical sets for nodes in different groups")
	}
}

func TestBlockSweepJammerDwellsAndCycles(t *testing.T) {
	const c, budget, dwell = 10, 3, 4
	j := jamming.NewBlockSweepJammer(c, budget, dwell)
	numBlocks := (c + budget - 1) / budget
	for slot := 0; slot < 3*numBlocks*dwell; slot++ {
		got := append([]int(nil), j.Jammed(slot, 0)...)
		block := (slot / dwell) % numBlocks
		for i, ch := range got {
			if want := (block*budget + i) % c; ch != want {
				t.Fatalf("slot %d: jammed[%d] = %d, want %d", slot, i, ch, want)
			}
		}
		// Deterministic: the same slot always jams the same set, for any node.
		again := j.Jammed(slot, 7)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("slot %d: jammed set differs between calls", slot)
			}
		}
	}
	// Within one dwell window the set must not move.
	first := append([]int(nil), j.Jammed(0, 0)...)
	for slot := 1; slot < dwell; slot++ {
		got := j.Jammed(slot, 0)
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("slot %d: jammed set moved inside dwell window", slot)
			}
		}
	}
	if got := jamming.NewBlockSweepJammer(c, 0, dwell).Jammed(0, 0); got != nil {
		t.Errorf("zero-budget jammer jammed %v", got)
	}
}

func TestNoJammerLeavesFullSpectrum(t *testing.T) {
	asn, err := jamming.NewAssignment(3, 6, 2, jamming.NoJammer{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(asn.ChannelSet(0, 0)); got != 6 {
		t.Errorf("unjammed set size %d, want full spectrum 6", got)
	}
}

func TestJammerNames(t *testing.T) {
	if (jamming.NoJammer{}).Name() != "none" ||
		jamming.NewRandomJammer(4, 1, 1).Name() != "random" ||
		jamming.NewSweepJammer(4, 1).Name() != "sweep" ||
		jamming.NewBlockSweepJammer(4, 1, 2).Name() != "block" ||
		jamming.NewSplitJammer(4, 1, 2).Name() != "split" {
		t.Error("jammer name mismatch")
	}
}

func overlap(a, b []int) int {
	set := make(map[int]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	n := 0
	for _, x := range b {
		if _, ok := set[x]; ok {
			n++
		}
	}
	return n
}

// TestAssignmentFillAllocFree pins the reuse of the assignment's shuffle
// generator and the random jammer's generator and permutation buffer: once
// warm, materializing a new slot for every node allocates nothing.
func TestAssignmentFillAllocFree(t *testing.T) {
	a, err := jamming.NewAssignment(64, 16, 3, jamming.NewRandomJammer(16, 3, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	slot := 0
	a.ChannelSet(0, slot)
	allocs := testing.AllocsPerRun(50, func() {
		slot++
		a.ChannelSet(0, slot)
	})
	if allocs != 0 {
		t.Errorf("filling a slot for 64 nodes allocates %.1f objects, want 0", allocs)
	}
}
