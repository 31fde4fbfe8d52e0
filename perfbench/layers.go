package main

import (
	"fmt"
	"time"
)

// algorithms are the five localization algorithms, by layer name.
var algorithms = []string{"cbg", "octant", "spotter", "hybrid", "cbgpp"}

// tracedLayers are the layers spans are recorded for; "bench" is the
// benchmark's own time, including open-loop queueing in coord-service.
var tracedLayers = []string{"experiments", "cbg", "octant", "spotter", "hybrid", "cbgpp", "assess", "stream", "atlasd", "bench"}

// atlasdEndpoints are the coordination-service endpoints a campaign
// calls.
var atlasdEndpoints = []string{"phase1", "phase2", "model", "report"}

// layerMetrics lists every per-layer metric with its unit, in report
// order. Every traced run reports all of them: the ledger's
// microbenchmarks run on pinned fixtures in every workload, while a
// metric read from a workload's own trace or counters is 0 on the
// workloads that do not exercise that layer.
var layerMetrics = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	// Ledger: testing.Benchmark at one worker on pinned fixtures.
	add("netsim.probe_ns", "ns")
	add("netsim.probe_bytes", "B")
	add("netsim.probe_allocs", "count")
	add("netsim.provision_ns", "ns")
	add("measure.server_ms", "ms")
	add("measure.server_allocs", "count")
	for _, a := range algorithms {
		add(a+".locate_ms", "ms")
		add(a+".locate_tail_ms", "ms")
		add(a+".locate_allocs", "count")
	}
	add("assess.assess_us", "us")
	add("assess.assess_allocs", "count")
	add("detect.crossvalidate_ms", "ms")
	add("detect.inspect_us", "us")
	add("detect.judge_ms", "ms")
	for _, e := range atlasdEndpoints {
		add("atlasd."+e+"_us", "us")
		add("atlasd."+e+"_bytes", "B")
		add("atlasd."+e+"_allocs", "count")
	}
	// Workload traces and counters.
	add("measure.samples", "count")
	add("experiments.audit_measure_s", "s")
	add("experiments.audit_locate_s", "s")
	add("experiments.audit_disambiguate_s", "s")
	add("experiments.serial_wall_s", "s")
	add("experiments.parallel_wall_s", "s")
	add("experiments.parallel_speedup", "ratio")
	add("grid.mask_refined_cells", "count")
	add("grid.mask_hit_ratio", "ratio")
	add("grid.field_hit_ratio", "ratio")
	add("stream.spec_us", "us")
	add("stream.provision_ms", "ms")
	add("stream.release_ms", "ms")
	add("stream.batch_ms", "ms")
	add("stream.sync_self_ms", "ms")
	add("stream.dirty_ratio", "ratio")
	add("atlasd.shed", "count")
	add("atlasd.model_hit_ratio", "ratio")
	add("atlasd.generator_lag_ms", "ms")
	add("atlasd.max_rate", "1/s")
	for _, e := range atlasdEndpoints {
		add("atlasd."+e+"_p50_us", "us")
		add("atlasd."+e+"_tail_us", "us")
	}
	for _, l := range tracedLayers {
		add(l+".self_pct", "%")
	}
	add("bench.latency_tail_ms", "ms")
	add("runtime.gc_cycles", "count")
	add("trace.overhead", "ratio")
	add("trace.accounted_ratio", "ratio")
	return out
}()

// layerSet collects per-layer values by name.
type layerSet map[string]float64

// metrics returns every per-layer metric, 0 for those the run did not
// reach.
func (m layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{Value: m[lm.name], Unit: lm.unit}
	}
	return out
}

func (m layerSet) render() []string {
	out := []string{"per-layer:"}
	for _, lm := range layerMetrics {
		out = append(out, fmt.Sprintf("  %-34s %14.6g %s", lm.name, m[lm.name], lm.unit))
	}
	return out
}

// accountTrace sets each traced layer's share of the spans' summed
// self time, and trace.accounted_ratio: the time the traced rounds
// spent inside layer spans, over the same number of untraced round
// walls. It lies between 1 and the tracing overhead when the spans
// account for the untraced wall; the rest of a round is the root span's
// own time. Calls that overlap on parallel workers count once there, and
// each in its layer's share.
func accountTrace(spans []span, untracedWall float64, m layerSet) {
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	var total, inside time.Duration
	var rounds int
	for i, s := range spans {
		byLayer[s.layer()] += self[i]
		total += self[i]
		if s.Name == "bench.round" {
			inside += s.dur() - self[i]
			rounds++
		}
	}
	if rounds == 0 || total <= 0 {
		return
	}
	for _, l := range tracedLayers {
		m[l+".self_pct"] = 100 * float64(byLayer[l]) / float64(total)
	}
	m["trace.accounted_ratio"] = inside.Seconds() / (float64(rounds) * untracedWall)
}
