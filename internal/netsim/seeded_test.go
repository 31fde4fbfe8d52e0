package netsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// referenceFloat64s is the generator path the closed form replaces.
func referenceFloat64s(seed int64, k int) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, k)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// referenceHash is the fmt + hash/fnv key hash the inline FNV-1a replaces.
func referenceHash(format string, args ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	return h.Sum64()
}

func checkSeeded(t *testing.T, seed int64) {
	t.Helper()
	want := referenceFloat64s(seed, maxSeededDraws)
	if got := SeededFloat64(seed); math.Float64bits(got) != math.Float64bits(want[0]) {
		t.Fatalf("seed %d: SeededFloat64 %v, math/rand %v", seed, got, want[0])
	}
	for k := 1; k <= maxSeededDraws; k++ {
		got := make([]float64, k)
		seededFloat64s(seed, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d, draw %d of %d: closed form %v, math/rand %v", seed, i, k, got[i], want[i])
			}
		}
	}
}

// TestSeededFloat64sMatchesMathRand pins the closed form to math/rand
// over 100k hashed pair seeds — the seeds pairUniforms actually feeds
// it — and checks the pair and outage key hashes against fmt +
// hash/fnv on the way.
func TestSeededFloat64sMatchesMathRand(t *testing.T) {
	const pairs = 100000
	for i := 0; i < pairs; i++ {
		netSeed := int64(i%97) - 48
		a, b := HostID(fmt.Sprintf("h%d", i)), HostID(fmt.Sprintf("lm-%d", i*31%1009))
		if b < a {
			a, b = b, a
		}
		n := &Network{seed: netSeed}
		s := referenceHash("%d|%s|%s", netSeed, a, b)
		u1, u2 := n.pairUniforms(a, b)
		want := referenceFloat64s(int64(s), 2)
		if u1 != want[0] || u2 != want[1] {
			t.Fatalf("pair %s|%s seed %d: pairUniforms (%v, %v), reference %v", a, b, netSeed, u1, u2, want)
		}
		if i%10 == 0 {
			checkSeeded(t, int64(s))
			got := uint64(fnvOffset64.str("outage|").int(netSeed).str("|").str(string(a)))
			if want := referenceHash("outage|%d|%s", netSeed, a); got != want {
				t.Fatalf("outage key hash for %s: %x, want %x", a, got, want)
			}
		}
	}
}

// TestSeededFloat64sEdgeSeeds covers the seed reduction's corners: zero
// and its 89482311 substitute, multiples of 2³¹−1 (which also reduce to
// zero), negatives and the int64 extremes.
func TestSeededFloat64sEdgeSeeds(t *testing.T) {
	seeds := []int64{0, -1, 1, lehmerZero, -lehmerZero, lehmerMod - 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, math.MaxInt64 / lehmerMod} {
		seeds = append(seeds, k*lehmerMod, -k*lehmerMod, k*lehmerMod+1, -k*lehmerMod-1)
	}
	for _, s := range seeds {
		checkSeeded(t, s)
	}
}

// TestFloat64FromWordResample: the words whose quotient rounds up to 1
// — the only case the closed form hands to math/rand — are exactly the
// top 512 of the 63-bit range.
func TestFloat64FromWordResample(t *testing.T) {
	for _, c := range []struct {
		v  int64
		ok bool
	}{
		{0, true},
		{1<<63 - 513, true},
		{1<<63 - 512, false},
		{math.MaxInt64, false},
		{-1, false}, // the sign bit is masked off
		{math.MinInt64, true},
	} {
		f, ok := float64FromWord(c.v)
		if ok != c.ok || (ok && !(f >= 0 && f < 1)) {
			t.Errorf("float64FromWord(%d) = (%v, %v), want ok=%v in [0,1)", c.v, f, ok, c.ok)
		}
	}
}

func TestHashIDMatchesFNV(t *testing.T) {
	for _, id := range []HostID{"", "a", "vpn-0017", "lm|x|ü", "a somewhat longer host identifier"} {
		if got, want := HashID(id), referenceHash("%s", id); got != want {
			t.Errorf("HashID(%q) = %x, want %x", id, got, want)
		}
	}
}

// FuzzSeededUniforms checks the closed form against math/rand on
// arbitrary seeds.
func FuzzSeededUniforms(f *testing.F) {
	for _, s := range []int64{0, -1, lehmerZero, lehmerMod, -lehmerMod, math.MinInt64, math.MaxInt64} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeeded(t, seed)
	})
}

// TestProbeAllocationFree: with faults disarmed a probe allocates
// nothing, and neither do the hashing and outage-window helpers.
func TestProbeAllocationFree(t *testing.T) {
	n := faultNet(t, 11)
	rng := rand.New(rand.NewSource(5))
	clk := &Clock{}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := n.Probe("ff-client", "ff-lm-tokyo", 80, rng, clk); err != nil && !errors.Is(err, ErrTimeout) {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Probe with faults disarmed: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { _ = HashID("ff-lm-tokyo") }); a != 0 {
		t.Errorf("HashID: %v allocs/op, want 0", a)
	}
	n.SetFaults(FaultConfig{OutageFraction: 0.5})
	if a := testing.AllocsPerRun(200, func() { _, _, _ = n.Outage("ff-lm-tokyo") }); a != 0 {
		t.Errorf("Outage: %v allocs/op, want 0", a)
	}
}

func BenchmarkPairUniforms(b *testing.B) {
	n := New(2018)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = n.pairUniforms("vpn-0017", "lm-fra-3")
	}
}

func BenchmarkProbe(b *testing.B) {
	n := New(2018)
	for _, h := range []*Host{
		{ID: "client", Loc: geo.Point{Lat: 50.11, Lon: 8.68}},
		{ID: "lm", Loc: geo.Point{Lat: 35.68, Lon: 139.65}},
	} {
		if err := n.AddHost(h); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = n.Probe("client", "lm", 80, rng, nil)
	}
}
