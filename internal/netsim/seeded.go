package netsim

// Closed-form seeded uniforms. The simulator derives its per-pair path
// properties and per-host outage windows from the first few Float64
// draws of rand.New(rand.NewSource(s)) for a hashed seed s. Seeding a
// math/rand source fills a 607-word register (about 5 KB and several µs)
// only for two or three of its words to be read, once per probe. The
// functions here compute exactly those values without the register.
//
// Go 1 guarantees the math/rand value stream (see the comment on
// (*rand.Rand).Float64), and rngSource.Seed builds it as follows: the
// seed is reduced modulo 2³¹−1 (negative residues shifted up, 0 replaced
// by 89482311) and drives the Lehmer sequence x → 48271·x mod 2³¹−1;
// after 20 discarded steps, word i of the register takes the next three
// values x₁, x₂, x₃ as (x₁<<40 ^ x₂<<20 ^ x₃) ^ rngCooked[i]. Seeding
// leaves tap = 0 and feed = 334, so draw k (k < 273, before the feed
// index wraps onto a word an earlier draw rewrote) is the wrapping sum
// vec[333−k] + vec[606−k], masked to 63 bits, and Float64 divides it by
// 2⁶³. Each Lehmer value is the seed times a precomputed power of 48271,
// so a word costs three multiply-mods.
//
// Float64 resamples when the division rounds up to exactly 1, which
// shifts every later draw; on that path (probability ≈ 2⁻⁵⁴ per draw)
// the closed form hands over to the real generator.

import (
	"math/rand"
	"strconv"
)

const (
	lehmerMod  = 1<<31 - 1 // math/rand's int32max
	lehmerMul  = 48271     // seedrand's multiplier
	lehmerZero = 89482311  // the seed rngSource.Seed substitutes for 0
	rngFeed    = 333       // the feed index of the first draw
	rngTap     = 606       // the tap index of the first draw
	rngMask63  = 1<<63 - 1

	// maxSeededDraws is how many leading Float64 draws the closed form
	// covers: two for a pair's path profile, three for an outage window.
	maxSeededDraws = 3
)

// cookedWords are math/rand's rngCooked entries for the register words
// the first maxSeededDraws draws read: {feed word, tap word} of draw k,
// that is rngCooked[333−k] and rngCooked[606−k] (copied from
// $GOROOT/src/math/rand/rng.go).
var cookedWords = [maxSeededDraws][2]int64{
	{-4633371852008891965, 4152330101494654406},
	{4287360518296753003, 9103922860780351547},
	{-1072987336855386047, 8382142935188824023},
}

// registerWord describes one seeded register word as a function of the
// reduced seed x₀: its three Lehmer values are x₀·mul[j] mod 2³¹−1.
type registerWord struct {
	mul    [3]uint64
	cooked int64
}

// value returns the register word for the reduced seed x0.
func (w *registerWord) value(x0 uint64) int64 {
	u := int64(x0*w.mul[0]%lehmerMod) << 40
	u ^= int64(x0*w.mul[1]%lehmerMod) << 20
	u ^= int64(x0 * w.mul[2] % lehmerMod)
	return u ^ w.cooked
}

// drawWords holds the {feed, tap} register words of each leading draw.
var drawWords = func() (out [maxSeededDraws][2]registerWord) {
	for k := range out {
		for j, i := range [2]int{rngFeed - k, rngTap - k} {
			w := &out[k][j]
			w.cooked = cookedWords[k][j]
			// Word i reads Lehmer steps 21+3i, 22+3i and 23+3i.
			for t := range w.mul {
				w.mul[t] = lehmerPow(uint64(21 + 3*i + t))
			}
		}
	}
	return out
}()

// lehmerPow returns 48271^e mod 2³¹−1.
func lehmerPow(e uint64) uint64 {
	r, b := uint64(1), uint64(lehmerMul)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % lehmerMod
		}
		b = b * b % lehmerMod
	}
	return r
}

// lehmerSeed reduces a seed the way rngSource.Seed does.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = lehmerZero
	}
	return uint64(seed)
}

// float64FromWord is Float64's division of a 63-bit draw by 2⁶³; ok is
// false when the quotient rounds up to 1 and Float64 would resample.
func float64FromWord(v int64) (f float64, ok bool) {
	f = float64(uint64(v)&rngMask63) / (1 << 63)
	return f, f != 1
}

// seededFloat64s sets out[k] to the k-th value of
// rand.New(rand.NewSource(seed)).Float64(), for len(out) ≤
// maxSeededDraws, without building the generator.
func seededFloat64s(seed int64, out []float64) {
	x0 := lehmerSeed(seed)
	for k := range out {
		w := &drawWords[k]
		f, ok := float64FromWord(w[0].value(x0) + w[1].value(x0))
		if !ok {
			// Float64 resamples here, shifting every later draw.
			r := rand.New(rand.NewSource(seed))
			for i := range out {
				out[i] = r.Float64()
			}
			return
		}
		out[k] = f
	}
}

// SeededFloat64 returns rand.New(rand.NewSource(seed)).Float64(), the
// first draw of a freshly seeded generator, without building one: the
// pure per-key uniform behind hashed structural draws (which host is an
// adversary, which landmark is targeted) at the cost of six
// multiply-mods instead of a 5 KB register fill.
func SeededFloat64(seed int64) float64 {
	var u [1]float64
	seededFloat64s(seed, u[:])
	return u[0]
}

// fnv1a is an FNV-1a 64-bit hash state fed in place, with no hash.Hash
// and no intermediate string, so hashing a formatted key allocates
// nothing.
type fnv1a uint64

const (
	fnvOffset64 fnv1a = 14695981039346656037
	fnvPrime64  fnv1a = 1099511628211
)

// str feeds the bytes of s.
func (h fnv1a) str(s string) fnv1a {
	for i := 0; i < len(s); i++ {
		h ^= fnv1a(s[i])
		h *= fnvPrime64
	}
	return h
}

// int feeds the decimal form of v, the bytes fmt's %d would print.
func (h fnv1a) int(v int64) fnv1a {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h ^= fnv1a(c)
		h *= fnvPrime64
	}
	return h
}
