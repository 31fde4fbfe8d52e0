package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		sp(0, -1, "bench.round", 0, 100),
		sp(1, 0, "cbg.locate", 10, 30),
		sp(2, 0, "cbg.locate", 20, 50), // overlaps span 1: counted once
		sp(3, 0, "assess.assess", 60, 70),
		sp(4, 3, "assess.inner", 62, 65),
		sp(5, 0, "bench.late", 95, 120), // runs past its parent: clipped
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 5, 20, 30, 10 - 3, 3, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, i, got[i], want[i])
		}
	}
}

func TestAccountTraceSharesAndCoverage(t *testing.T) {
	spans := []span{
		sp(0, -1, "bench.round", 0, 100),
		sp(1, 0, "cbg.locate", 0, 60),
		sp(2, 0, "assess.assess", 60, 90),
	}
	m := layerSet{}
	// Untraced rounds took 80: the spans cover 90 of a traced round.
	accountTrace(spans, 80e-9, m)
	if got := m["trace.accounted_ratio"]; got < 1.1249 || got > 1.1251 {
		t.Errorf("accounted ratio %v, want 90/80", got)
	}
	for layer, want := range map[string]float64{"cbg": 60, "assess": 30, "bench": 10} {
		if got := m[layer+".self_pct"]; got != want {
			t.Errorf("%s.self_pct = %v, want %v", layer, got, want)
		}
	}
}

func TestAdoptNestsCallsUnderTheBatchThatContainsThem(t *testing.T) {
	tr := newTracer()
	base := tr.epoch
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	pass := tr.record("stream.delta_pass", "", -1, at(0), at(100))
	loc1 := tr.record("cbgpp.locate", "", pass, at(12), at(18))
	loc2 := tr.record("cbgpp.locate", "", pass, at(55), at(60))
	outside := tr.record("cbgpp.locate", "", pass, at(45), at(52)) // between batches
	b1 := tr.record("stream.batch", "0", pass, at(10), at(40))
	b2 := tr.record("stream.batch", "1", pass, at(50), at(90))
	tr.adopt("stream.batch", "cbgpp.locate")
	s := tr.snapshot()
	if s[loc1].Parent != b1 || s[loc2].Parent != b2 || s[outside].Parent != pass {
		t.Fatalf("parents: %d %d %d; want %d %d %d", s[loc1].Parent, s[loc2].Parent, s[outside].Parent, b1, b2, pass)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", "", -1)
	tr.end(id)
	tr.adopt("a", "b")
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("a nil tracer must be a no-op")
	}
}
