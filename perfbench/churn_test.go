package main

import (
	"fmt"
	"reflect"
	"testing"

	"activegeo/internal/netsim"
	"activegeo/internal/stream"
)

// fakeFleet is a provisioned stream source that records the calls it
// receives.
type fakeFleet struct {
	n                  int
	provided, released [][]stream.ServerSpec
}

func (f *fakeFleet) Len() int { return f.n }
func (f *fakeFleet) Spec(i int) stream.ServerSpec {
	return stream.ServerSpec{ID: netsim.HostID(fmt.Sprint("s", i)), Claimed: "DE"}
}
func (f *fakeFleet) Provision(specs []stream.ServerSpec) error {
	f.provided = append(f.provided, specs)
	return nil
}
func (f *fakeFleet) Release(specs []stream.ServerSpec) { f.released = append(f.released, specs) }

var countries = []string{"DE", "FR", "US", "JP"}

func rotations(seed int64, k int) ([][]int, map[int]string) {
	src := newRotatingSource(&fakeFleet{n: 500}, seed, countries)
	var out [][]int
	for i := 0; i < k; i++ {
		out = append(out, src.rotate())
	}
	return out, src.claims
}

func TestRotationIsAPureFunctionOfTheSeed(t *testing.T) {
	a, ca := rotations(7, 5)
	b, cb := rotations(7, 5)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ca, cb) {
		t.Fatal("the same seed gave different dirty sets or claims")
	}
	if c, _ := rotations(8, 5); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same dirty sets")
	}
	for _, set := range a {
		if len(set) != 10 { // 2% of 500
			t.Fatalf("dirty set of %d servers, want 10", len(set))
		}
	}
}

func TestRotationChangesOnlyTheDirtyClaims(t *testing.T) {
	src := newRotatingSource(&fakeFleet{n: 100}, 3, countries)
	before := make([]stream.ServerSpec, 100)
	for i := range before {
		before[i] = src.Spec(i)
	}
	dirty := map[int]bool{}
	for _, i := range src.rotate() {
		dirty[i] = true
	}
	for i := range before {
		after := src.Spec(i)
		changed := after.Claimed != before[i].Claimed
		if changed != dirty[i] || after.ID != before[i].ID {
			t.Errorf("server %d: claim %s→%s, dirty %v", i, before[i].Claimed, after.Claimed, dirty[i])
		}
	}
}

func TestRotatingSourcePassesProvisioningThrough(t *testing.T) {
	inner := &fakeFleet{n: 4}
	src := newRotatingSource(inner, 1, countries)
	specs := []stream.ServerSpec{src.Spec(0), src.Spec(1)}
	if err := src.Provision(specs); err != nil {
		t.Fatal(err)
	}
	src.Release(specs)
	if !reflect.DeepEqual(inner.provided, [][]stream.ServerSpec{specs}) || !reflect.DeepEqual(inner.released, [][]stream.ServerSpec{specs}) {
		t.Fatalf("provisioned %v, released %v", inner.provided, inner.released)
	}
}

func TestCheckChurnStores(t *testing.T) {
	if err := checkChurnStores("a\ntally:1/2/3\n", "a\ntally:1/2/3\n"); err != nil {
		t.Fatal(err)
	}
	if checkChurnStores("a\ntally:1/2/3\n", "a\ntally:1/3/2\n") == nil {
		t.Fatal("a store that differs from the fresh pass must fail the check")
	}
}

func TestCheckDeltaRejectsMissedReaudits(t *testing.T) {
	src := newRotatingSource(&fakeFleet{n: 10}, 1, countries)
	store := stream.NewStore()
	if checkDelta(store, src, []int{1, 2}, stream.PassStats{Audited: 1}, 2) == nil {
		t.Error("a pass that re-audited fewer servers than rotated passed")
	}
	// The empty store holds no verdict from pass 2 for the rotated servers.
	if checkDelta(store, src, []int{1, 2}, stream.PassStats{Audited: 2}, 2) == nil {
		t.Error("rotated servers without a verdict from the pass passed")
	}
}
