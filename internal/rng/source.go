package rng

// This file holds the random source behind New and Reseed: math/rand's Go 1
// lagged-Fibonacci generator, reproduced draw for draw for every int64 seed,
// except that Seed costs O(1) instead of math/rand's 1,841 serial
// Park–Miller steps.
//
// math/rand seeds its 607-word register from the Park–Miller sequence
// x_k = 48271^k·x0 mod (2³¹−1), where x0 is the normalised seed: after 20
// warm-up steps, word i is
//
//	r0[i] = x_{3i+21}<<40 ^ x_{3i+22}<<20 ^ x_{3i+23} ^ rngCooked[i]
//
// Each x_k is one multiply of x0 against the power table below, so any
// register word can be computed on its own. Draw j (counting from 0) reads
// the tap at word 606−j and the feed at word 333−j, rngTap words lower,
// returns their sum and stores it under the feed. The feed's stores land
// below the tap until the tap reaches word 333, the first store's word, at
// draw rngTap. So draw j < rngTap is r0[606−j] + r0[333−j], straight from
// the seed. Before serving draw rngTap the source materialises the register
// from the closed form, replays the rngTap stores already served, and from
// then on runs the ordinary generator.

const (
	rngLen   = 607       // register words
	rngTap   = 273       // distance from the feed down to the tap
	rngMask  = 1<<63 - 1 // Int63's mask
	int32max = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	seedMul  = 48271     // the Park–Miller multiplier
	seedSkip = 20        // Park–Miller steps before register word 0
	seedZero = 89482311  // what math/rand seeds with instead of 0
)

// seedPow[i] holds 48271^k mod (2³¹−1) for the three Park–Miller steps
// k = 3i+21, 3i+22, 3i+23 that register word i is built from.
var seedPow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for k := 0; k < seedSkip; k++ {
		x = mulMod(x, seedMul)
	}
	for i := range p {
		for m := range p[i] {
			x = mulMod(x, seedMul)
			p[i][m] = uint32(x)
		}
	}
	return p
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1 without a division or a
// branch. As 2³¹ ≡ 1, folding the high bits onto the low ones keeps the
// residue. The product is below 2⁶²; one fold leaves less than 2³², a
// second at most 2³¹−1, and that value (≡ 0) only if a factor is 0, when
// the result is 0 instead.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	return p&int32max + p>>31
}

// source is math/rand's Go 1 source (what rand.NewSource returns) with O(1)
// seeding. It serves the first rngTap draws after each Seed from the closed
// form and allocates its register only when a stream draws further.
type source struct {
	x0   uint64         // normalised seed, in [1, 2³¹−2]
	n    int            // closed-form draws served since Seed
	live bool           // vec holds this seed's register, stepped by tap/feed
	tap  int            // register index of the last tap read
	feed int            // register index of the last feed write
	vec  *[rngLen]int64 // allocated at the first materialisation, then kept
}

func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed normalises seed exactly as math/rand does and puts the source back
// on the closed-form path. It keeps an allocated register for reuse.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.n = 0
	s.live = false
}

// word returns register word i as math/rand's seeding leaves it.
func (s *source) word(i int) int64 {
	p := &seedPow[i]
	u := mulMod(s.x0, uint64(p[0]))<<40 ^ mulMod(s.x0, uint64(p[1]))<<20 ^ mulMod(s.x0, uint64(p[2]))
	return int64(u) ^ rngCooked[i]
}

// closed returns draw j < rngTap from the closed form, word(606−j) +
// word(333−j), written out in one body so the two words' six multiplies
// overlap (word is too large to inline).
func (s *source) closed(j int) uint64 {
	x := s.x0
	hi, lo := rngLen-1-j, rngLen-rngTap-1-j
	a, b := &seedPow[hi], &seedPow[lo]
	wa := mulMod(x, uint64(a[0]))<<40 ^ mulMod(x, uint64(a[1]))<<20 ^ mulMod(x, uint64(a[2])) ^ uint64(rngCooked[hi])
	wb := mulMod(x, uint64(b[0]))<<40 ^ mulMod(x, uint64(b[1]))<<20 ^ mulMod(x, uint64(b[2])) ^ uint64(rngCooked[lo])
	return wa + wb
}

// materialise builds the register as math/rand's would stand after the
// rngTap closed-form draws: the seeded words, with each draw's sum stored
// under its feed.
func (s *source) materialise() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for i := rngLen - 2*rngTap; i < rngLen-rngTap; i++ {
		v[i] += v[i+rngTap]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	s.live = true
}

// Uint64 returns the next draw of the stream.
func (s *source) Uint64() uint64 {
	if !s.live {
		if j := s.n; j < rngTap {
			s.n++
			return s.closed(j)
		}
		s.materialise()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw with its top bit cleared, as math/rand does.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
