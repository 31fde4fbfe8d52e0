package main

import (
	"encoding/json"
	"os"
	"testing"

	"activegeo/internal/assess"
)

func TestCheckFleetRejectsCorruptedOutputs(t *testing.T) {
	pin := assess.Tally{Credible: fleetPin.credible, Uncertain: fleetPin.uncertain, False: fleetPin.false_}
	n := pin.Credible + pin.Uncertain + pin.False
	first := ""
	if err := checkFleet(defaultSeed, n, n, pin, fleetPin.sha, &first); err != nil {
		t.Fatalf("the pinned output fails: %v", err)
	}
	wrongTally := pin
	wrongTally.Credible, wrongTally.False = wrongTally.Credible-1, wrongTally.False+1
	for name, tc := range map[string]struct {
		seed    int64
		results int
		tally   assess.Tally
		sha     string
	}{
		"missing verdict":  {defaultSeed, n - 1, pin, fleetPin.sha},
		"moved verdict":    {defaultSeed, n, wrongTally, fleetPin.sha},
		"changed digest":   {defaultSeed, n, pin, "00"},
		"drift at seed 7":  {7, n, wrongTally, "ff"}, // differs from the first round
		"partial coverage": {7, n, assess.Tally{Credible: 1}, fleetPin.sha},
	} {
		if err := checkFleet(tc.seed, n, tc.results, tc.tally, tc.sha, &first); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	// Away from the default seed only the cross-checks apply.
	other := ""
	if err := checkFleet(7, n, n, wrongTally, "ff", &other); err != nil {
		t.Errorf("seed 7, first round: %v", err)
	}
}

func TestCheckRelocateRejectsCorruptedOutputs(t *testing.T) {
	if err := checkRelocate(defaultSeed, relocatePinSHA, relocatePinSHA); err != nil {
		t.Fatal(err)
	}
	if checkRelocate(defaultSeed, "aa", "aa") == nil {
		t.Error("a digest off the pin passed at the default seed")
	}
	if checkRelocate(7, "aa", "bb") == nil {
		t.Error("a round that differs from the warm round passed")
	}
	if err := checkRelocate(7, "aa", "aa"); err != nil {
		t.Errorf("seed 7 cross-check: %v", err)
	}
}

// BENCHMARK.json names the same workloads and metrics, with the same
// units, as the program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, layerMetrics)
}
