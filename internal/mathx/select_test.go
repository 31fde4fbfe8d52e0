package mathx

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// The robust-fit kernel finds its medians by selection (medianInPlace).
// The oracles below are the copy-and-sort implementations it replaced,
// kept verbatim so every check is against the historical bits.

// sortMedian is the copy-and-sort median: Quantile(xs, 0.5) as it was.
func sortMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := 0.5 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sortMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := sortMedian(xs)
	devs := make([]float64, len(xs))
	for i, v := range xs {
		devs[i] = math.Abs(v - m)
	}
	return sortMedian(devs)
}

func sortTheilSen(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("mathx: mismatched slice lengths")
	}
	n := len(x)
	if n < 2 {
		return Line{}, ErrInsufficientData
	}
	slopes := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := x[j] - x[i]
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (y[j]-y[i])/dx)
		}
	}
	if len(slopes) == 0 {
		return Line{}, errors.New("mathx: degenerate x values")
	}
	slope := sortMedian(slopes)
	resid := make([]float64, n)
	for i := range x {
		resid[i] = y[i] - slope*x[i]
	}
	return Line{Slope: slope, Intercept: sortMedian(resid)}, nil
}

func sortTrimmedLine(x, y []float64, trim float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("mathx: mismatched slice lengths")
	}
	if trim < 0 || trim >= 0.5 {
		return Line{}, ErrTrimRange
	}
	n := len(x)
	drop := int(trim * float64(n))
	keep := n - drop
	if keep < 2 {
		return Line{}, ErrInsufficientData
	}
	line, err := sortTheilSen(x, y)
	if err != nil {
		return Line{}, err
	}
	if drop == 0 {
		if ols, err := FitLine(x, y); err == nil {
			return ols, nil
		}
		return line, nil
	}
	idx := make([]int, n)
	kx := make([]float64, 0, keep)
	ky := make([]float64, 0, keep)
	for iter := 0; iter < 3; iter++ {
		for i := range idx {
			idx[i] = i
		}
		resid := func(i int) float64 { return math.Abs(y[i] - line.At(x[i])) }
		sort.Slice(idx, func(a, b int) bool {
			ra, rb := resid(idx[a]), resid(idx[b])
			if ra != rb {
				return ra < rb
			}
			return idx[a] < idx[b]
		})
		kx, ky = kx[:0], ky[:0]
		for _, i := range idx[:keep] {
			kx = append(kx, x[i])
			ky = append(ky, y[i])
		}
		refit, err := FitLine(kx, ky)
		if err != nil {
			return line, nil
		}
		if refit == line {
			break
		}
		line = refit
	}
	return line, nil
}

// sameFloat is bit equality with two exceptions, both artefacts of
// where equal-comparing elements happen to land rather than of the
// arithmetic: the sort and the selection may pick -0 or +0 out of a run
// of zeros (so zeros compare with ==), and a NaN out of a run of NaNs
// with different payloads (so any NaN matches any NaN).
func sameFloat(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkRobustKernel compares Median, MAD, TheilSen and TrimmedLine on
// (x, y) against the copy-and-sort oracles.
func checkRobustKernel(t *testing.T, name string, x, y []float64) {
	t.Helper()
	for _, v := range [][]float64{x, y} {
		if got, want := Median(v), sortMedian(v); !sameFloat(got, want) {
			t.Fatalf("%s: Median = %v (%#x), oracle %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := MAD(v), sortMAD(v); !sameFloat(got, want) {
			t.Fatalf("%s: MAD = %v, oracle %v", name, got, want)
		}
	}
	got, gerr := TheilSen(x, y)
	want, werr := sortTheilSen(x, y)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: TheilSen error %v, oracle %v", name, gerr, werr)
	}
	if !sameFloat(got.Slope, want.Slope) || !sameFloat(got.Intercept, want.Intercept) {
		t.Fatalf("%s: TheilSen = %+v, oracle %+v", name, got, want)
	}
	for _, trim := range []float64{0, 0.1, 0.3} {
		got, gerr := TrimmedLine(x, y, trim)
		want, werr := sortTrimmedLine(x, y, trim)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s trim %v: TrimmedLine error %v, oracle %v", name, trim, gerr, werr)
		}
		if !sameFloat(got.Slope, want.Slope) || !sameFloat(got.Intercept, want.Intercept) {
			t.Fatalf("%s trim %v: TrimmedLine = %+v, oracle %+v", name, trim, got, want)
		}
	}
}

// TestRobustKernelMatchesSortOracle: on random corpora of every size
// from 2 to 64, selection reproduces the sort-based fits bit for bit.
func TestRobustKernelMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 2; n <= 64; n++ {
		for rep := 0; rep < 4; rep++ {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64() * 9000
				y[i] = 3 + 0.012*x[i] + rng.NormFloat64()*4
				if rng.Float64() < 0.2 {
					y[i] += rng.Float64() * 300
				}
			}
			checkRobustKernel(t, "random", x, y)
		}
	}
}

// TestRobustKernelDirectedMesh: a directed calibration mesh reports
// every anchor pair twice with the same distance, so half the pairs
// have dx == 0 and the slope set is full of near-duplicates — the shape
// detect.CrossValidate fits.
func TestRobustKernelDirectedMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const anchors = 24
	lat := make([]float64, anchors)
	lon := make([]float64, anchors)
	for i := range lat {
		lat[i] = rng.Float64()*120 - 60
		lon[i] = rng.Float64()*360 - 180
	}
	var dist, rtt []float64
	for a := 0; a < anchors; a++ {
		for b := 0; b < anchors; b++ {
			if a == b {
				continue
			}
			d := math.Hypot(lat[a]-lat[b], lon[a]-lon[b]) * 111
			dist = append(dist, d)
			rtt = append(rtt, 2+d/100+rng.ExpFloat64()*3)
		}
	}
	checkRobustKernel(t, "mesh", dist, rtt)
}

// TestRobustKernelDegenerateInputs covers ties, the all-equal-x error
// path, and non-finite entries.
func TestRobustKernelDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*200 - 100
		}
		return v
	}
	fill := func(n int, c float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = c
		}
		return v
	}
	for _, n := range []int{2, 3, 7, 16, 41} {
		// All-tied y: every slope is a signed zero.
		checkRobustKernel(t, "tied-y", ramp(n), fill(n, 7))
		checkRobustKernel(t, "tied-y-zero", ramp(n), fill(n, 0))
		// All-equal x: no finite slope, TheilSen errors.
		checkRobustKernel(t, "equal-x", fill(n, 42), ramp(n))
		// Non-finite entries sprinkled through both coordinates.
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x, y := ramp(n), ramp(n)
			y[rng.Intn(n)] = bad
			checkRobustKernel(t, "bad-y", x, y)
			x[rng.Intn(n)] = bad
			checkRobustKernel(t, "bad-xy", x, y)
		}
		x, y := ramp(n), ramp(n)
		for i := range y {
			if i%3 == 0 {
				y[i] = math.NaN()
			}
			if i%4 == 1 {
				x[i] = math.Inf(1 - 2*(i%2))
			}
		}
		checkRobustKernel(t, "mixed", x, y)
	}
}

// TestSelectKthDepthFallback: for every depth budget from zero (sort
// at once) through the point where partitioning finishes on its own,
// selection puts the sorted k-th element at k and partitions around it
// — including on the inputs median-of-three handles worst and on runs
// of ties.
func TestSelectKthDepthFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		},
		"sorted": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)
			}
			return v
		},
		"reversed": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(n - i)
			}
			return v
		},
		"organ-pipe": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(min(i, n-1-i))
			}
			return v
		},
		"few-values": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(rng.Intn(3))
			}
			return v
		},
		"nan-heavy": func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
				if rng.Intn(2) == 0 {
					v[i] = math.NaN()
				}
			}
			return v
		},
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, n := range []int{1, 2, 3, 5, 31, 64, 257} {
			in := shapes[name](n)
			want := append([]float64(nil), in...)
			sort.Float64s(want)
			for depth := 0; depth <= 2*bits.Len(uint(n))+1; depth++ {
				for _, k := range []int{0, (n - 1) / 2, n - 1} {
					s := append([]float64(nil), in...)
					selectKth(s, k, depth)
					if !sameFloat(s[k], want[k]) {
						t.Fatalf("%s n=%d depth=%d: s[%d] = %v, sorted %v", name, n, depth, k, s[k], want[k])
					}
					for i := range s {
						if (i < k && floatLess(s[k], s[i])) || (i > k && floatLess(s[i], s[k])) {
							t.Fatalf("%s n=%d depth=%d k=%d: s[%d] = %v on the wrong side of %v", name, n, depth, k, i, s[i], s[k])
						}
					}
				}
				s := append([]float64(nil), in...)
				if got, oracle := medianInPlace(s), sortMedian(in); !sameFloat(got, oracle) {
					t.Fatalf("%s n=%d: medianInPlace = %v, oracle %v", name, n, got, oracle)
				}
			}
		}
	}
}

// TestTheilSenAllocations: the slopes are selected in place, so
// TheilSen allocates one slope slice and one residual slice — the sort
// path also allocated a copy of each.
func TestTheilSenAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = rng.Float64() * 1000
		y[i] = 0.01*x[i] + rng.NormFloat64()
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := TheilSen(x, y); err != nil {
			t.Fatal(err)
		}
	}); a != 2 {
		t.Errorf("TheilSen: %v allocs/op, want 2 (slopes + residuals)", a)
	}
}

// FuzzTheilSenSelect drives the kernel with arbitrary float bit
// patterns (NaNs, infinities, subnormals, signed zeros included), read
// as interleaved (x, y) pairs.
func FuzzTheilSenSelect(f *testing.F) {
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1, 2, 2, 4, 3, 6.5))
	f.Add(enc(0, 1, 0, 2, 0, 3))
	f.Add(enc(1, 0, 2, math.Copysign(0, -1), 3, 0, 4, 0))
	f.Add(enc(1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1), 4, 5, 5, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/16, 64)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkRobustKernel(t, "fuzz", x, y)
	})
}
