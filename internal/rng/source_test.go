package rng

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// matchDraws is the number of draws each reference comparison covers: past
// the materialisation at draw rngTap and past the register's first wrap at
// draw rngLen, several times over.
const matchDraws = 2000

// referenceSeeds are math/rand's normalisation edges (0 and the multiples
// of 2³¹−1, all seeded as 89482311, and their neighbours; ±1; the int64
// extremes), a few ordinary values and 300 derived node seeds.
func referenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, -(int32max + 1),
		2 * int32max, -2 * int32max, 3 * int32max, 1 << 31, -(1 << 31),
		(math.MaxInt64 / int32max) * int32max, (math.MinInt64 / int32max) * int32max,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		seedZero, 42, 0x5e5,
	}
	for i := int64(0); i < 300; i++ {
		seeds = append(seeds, Derive(42, i, 0xca57))
	}
	return seeds
}

func TestSourceMatchesGo1Uint64(t *testing.T) {
	for _, seed := range referenceSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 0; i < matchDraws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestSourceMatchesGo1DrawKinds drives rand.Rand's derived draws (each of
// which consumes the source differently) over both sources in lockstep.
func TestSourceMatchesGo1DrawKinds(t *testing.T) {
	var perm []int
	for _, seed := range referenceSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newSource(seed))
		wantPerm, gotPerm := make([]int, 29), make([]int, 29)
		for round := 0; round < 30; round++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d round %d: Int63 %d != %d", seed, round, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d round %d: Uint64 %d != %d", seed, round, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d round %d: Intn %d != %d", seed, round, g, w)
			}
			if g, w := got.Intn(1<<40+7), want.Intn(1<<40+7); g != w {
				t.Fatalf("seed %d round %d: Intn(large) %d != %d", seed, round, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d round %d: Float64 %v != %v", seed, round, g, w)
			}
			wp := want.Perm(37)
			if round%2 == 0 {
				perm = PermInto(got, perm, 37)
			} else {
				perm = got.Perm(37)
			}
			for i := range wp {
				if perm[i] != wp[i] {
					t.Fatalf("seed %d round %d: permutation index %d: %d != %d", seed, round, i, perm[i], wp[i])
				}
			}
			for i := range wantPerm {
				wantPerm[i], gotPerm[i] = i, i
			}
			want.Shuffle(len(wantPerm), func(i, j int) { wantPerm[i], wantPerm[j] = wantPerm[j], wantPerm[i] })
			got.Shuffle(len(gotPerm), func(i, j int) { gotPerm[i], gotPerm[j] = gotPerm[j], gotPerm[i] })
			for i := range wantPerm {
				if gotPerm[i] != wantPerm[i] {
					t.Fatalf("seed %d round %d: Shuffle index %d: %d != %d", seed, round, i, gotPerm[i], wantPerm[i])
				}
			}
		}
		// 30 rounds of the draws above consume at least 30·(5+37+28) draws.
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: final Int63 %d != %d", seed, g, w)
		}
	}
}

// TestReseedAfterMaterialise re-seeds a generator whose register is live:
// the source must drop back to the closed form, keep its register for the
// next materialisation, and still match a fresh math/rand source.
func TestReseedAfterMaterialise(t *testing.T) {
	r := New(7, 1)
	for i := 0; i < matchDraws; i++ {
		r.Int63()
	}
	for trial := int64(0); trial < 8; trial++ {
		Reseed(r, 7, trial, 0xca57)
		want := rand.New(rand.NewSource(Derive(7, trial, 0xca57)))
		for i := 0; i < matchDraws; i++ {
			if g, w := r.Int63(), want.Int63(); g != w {
				t.Fatalf("trial %d draw %d: reseeded %d != math/rand %d", trial, i, g, w)
			}
		}
	}
}

// TestRegisterLifetime pins when the register exists: not within the
// closed-form draws, from the first draw past them, and kept (but not live)
// across a later Seed.
func TestRegisterLifetime(t *testing.T) {
	s := newSource(3)
	for i := 0; i < rngTap; i++ {
		s.Uint64()
	}
	if s.vec != nil {
		t.Fatalf("register allocated within the first %d draws", rngTap)
	}
	s.Uint64()
	if !s.live || s.vec == nil {
		t.Fatalf("draw %d: live=%v allocated=%v, want a live register", rngTap+1, s.live, s.vec != nil)
	}
	vec := s.vec
	s.Seed(4)
	if s.live || s.n != 0 || s.vec != vec {
		t.Fatalf("after Seed: live=%v n=%d kept=%v, want the closed form with the register kept", s.live, s.n, s.vec == vec)
	}
}

func TestSeedPowTable(t *testing.T) {
	// Walk math/rand's Park–Miller sequence from x0 = 1 with a plain 64-bit
	// modular product, independent of mulMod's folding.
	x := uint64(1)
	for k := 1; k <= 3*rngLen+seedSkip; k++ {
		x = x * seedMul % int32max
		if k <= seedSkip {
			continue
		}
		i, m := (k-seedSkip-1)/3, (k-seedSkip-1)%3
		if uint64(seedPow[i][m]) != x {
			t.Fatalf("seedPow[%d][%d] = %d, want 48271^%d mod (2³¹−1) = %d", i, m, seedPow[i][m], k, x)
		}
	}
}

func TestMulModEdges(t *testing.T) {
	for _, c := range [][2]uint64{
		{0, 0}, {1, 1}, {int32max - 1, int32max - 1}, {int32max - 1, 1},
		{1 << 30, 2}, {1 << 30, 1 << 30}, {seedZero, seedMul}, {int32max - 1, seedMul},
	} {
		if got, want := mulMod(c[0], c[1]), c[0]*c[1]%int32max; got != want {
			t.Errorf("mulMod(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// TestReseedClosedFormAllocFree pins the set-up path: a warm generator
// re-seeded and drawn no further than the closed form allocates nothing.
func TestReseedClosedFormAllocFree(t *testing.T) {
	r := New(1)
	trial := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		trial++
		Reseed(r, 5, trial)
		for i := 0; i < rngTap; i++ {
			r.Int63()
		}
	})
	if allocs != 0 {
		t.Errorf("Reseed + %d draws allocates %.2f objects, want 0", rngTap, allocs)
	}
}

// TestReseedMaterialisedAllocFree pins register reuse: once a generator has
// materialised, re-seeding and drawing past the closed form reuses it.
func TestReseedMaterialisedAllocFree(t *testing.T) {
	r := New(1)
	for i := 0; i <= rngTap; i++ {
		r.Int63()
	}
	trial := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		trial++
		Reseed(r, 5, trial)
		for i := 0; i < 1000; i++ {
			r.Int63()
		}
	})
	if allocs != 0 {
		t.Errorf("Reseed + 1000 draws allocates %.2f objects, want 0", allocs)
	}
}

// FuzzSourceMatchesGo1 compares the source with math/rand's for any seed and
// draw count, then re-seeds both (the source's register, if materialised,
// is reused) and compares again.
func FuzzSourceMatchesGo1(f *testing.F) {
	f.Add(int64(0), uint16(2000))
	f.Add(int64(-1), uint16(rngTap))
	f.Add(int64(int32max), uint16(rngTap+1))
	f.Add(int64(math.MinInt64), uint16(rngLen+1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < int(draws); i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d pass %d draw %d: %#x, math/rand %#x", seed, pass, i, g, w)
				}
			}
			seed = ^seed
			want.Seed(seed)
			got.Seed(seed)
		}
	})
}

var sink int64

// BenchmarkReseed times re-seeding a warm generator and drawing from it,
// against math/rand's own source doing the same.
func BenchmarkReseed(b *testing.B) {
	for _, draws := range []int{1, 16, rngTap, 512} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			r := New(1)
			for i := 0; i <= rngTap; i++ {
				r.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Reseed(r, 9, int64(i))
				for d := 0; d < draws; d++ {
					sink += r.Int63()
				}
			}
		})
		b.Run("draws="+strconv.Itoa(draws)+"/math-rand", func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Seed(Derive(9, int64(i)))
				for d := 0; d < draws; d++ {
					sink += r.Int63()
				}
			}
		})
	}
}
