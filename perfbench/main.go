// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measurement window, checks the program's outputs,
// and prints one JSON result line last on standard output:
//
//	go run . --workload fleet-audit --seed 2018 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics: the
// spans recorded around every call into a layer, the program's own
// counters, and the microbenchmark ledger. README.md lists the
// workloads, the metrics and the layer each one should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its constructor; README.md
// documents them.
var workloads = map[string]func(seed int64, workers int) bench{
	"fleet-audit":   newFleetAudit,
	"relocate":      newRelocate,
	"stream-churn":  newStreamChurn,
	"coord-service": newCoordService,
}

// bench is one workload. setup builds fresh fixtures from the seed and
// is timed for setup_s; round runs the timed unit of work once; check
// runs the output check that needs the whole run.
type bench interface {
	// setupEachRound reports whether every round needs fresh fixtures
	// (its set-up then runs before each round instead of three times
	// up front).
	setupEachRound() bool
	setup() error
	round(rc roundCtx) (roundResult, error)
	check() error
	// layers adds the workload's per-layer metrics from a traced run.
	layers(spans []span, m layerSet) error
	// notes lists the workload's own figures for the human-readable
	// report.
	notes() []string
}

// roundCtx is what a round is handed: the tracer (nil when the round
// is untraced) and the span its spans hang under.
type roundCtx struct {
	tr   *tracer
	root int
}

// roundResult is what one timed round observed.
type roundResult struct {
	attempted int
	failed    int
	// opsPerSec is the round's throughput in its workload's operations.
	opsPerSec float64
	// latMs are latency samples in milliseconds.
	latMs []float64
	// checkErr is set when the round's output check failed.
	checkErr error
	// cost, when set, is the part of the round the workload counts for
	// cpu_s and alloc_mb instead of the whole round.
	cost *usageDelta
}

const (
	setupRepeats = 3
	minRounds    = 3
	// minTracedRounds gives a traced run at least three traced and three
	// untraced rounds, so the overhead ratio is not one round's noise.
	minTracedRounds = 6
	// traceDir holds the span files of traced runs. It lies inside the
	// checkout the benchmark runs from.
	traceDir = ".bench_build/traces"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fleet-audit, relocate, stream-churn or coord-service")
	seed := fs.Int64("seed", 2018, "workload seed (the lab Config.Seed)")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	workers := runtime.GOMAXPROCS(0)
	res, notes, err := drive(mk(*seed, workers), *workload, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units; every
// workload reports all of them. ops_per_s and the latencies take the
// workload's own operation, as README.md defines.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func readUsage() usage {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
		gcs:   s[1].Value.Uint64(),
	}
}

// usageDelta accumulates resource use over timed intervals.
type usageDelta struct {
	cpu   time.Duration
	alloc uint64
}

func (d *usageDelta) add(u0, u1 usage) {
	d.cpu += u1.cpu - u0.cpu
	d.alloc += u1.alloc - u0.alloc
}

// liveHeapAfterGC collects garbage and returns the heap left live. The
// value the runtime reports between collections depends on when the
// last one ran, so only a forced collection gives a steady figure.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// drive runs a workload: its set-ups, then timed rounds until the window
// closes (at least minRounds), then the output check. In trace mode the
// rounds alternate untraced and traced, so the tracing overhead is the
// ratio of their median walls.
func drive(b bench, name string, window time.Duration, traced bool) (*result, []string, error) {
	var setups []float64
	timedSetup := func() error {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	if !b.setupEachRound() {
		for i := 0; i < setupRepeats; i++ {
			if err := timedSetup(); err != nil {
				return nil, nil, err
			}
		}
	}

	var (
		cpu, alloc, ops, walls, twalls, lat []float64
		gcs                                 []float64
		attempted, failed                   int
		checkErrs                           []error
		peakHeap                            uint64
		tr                                  *tracer
	)
	if traced {
		tr = newTracer()
	}
	rounds := minRounds
	if traced {
		rounds = minTracedRounds
	}
	start := time.Now()
	for n := 0; n < rounds || time.Since(start) < window; n++ {
		if b.setupEachRound() {
			if err := timedSetup(); err != nil {
				return nil, nil, err
			}
		}
		// Collecting the previous round's garbage outside the timed part
		// makes each round pay only for its own allocations; what stays
		// live is the heap at the round boundary.
		peakHeap = max(peakHeap, liveHeapAfterGC())
		var rt *tracer
		if traced && n%2 == 1 {
			rt = tr
		}
		root := rt.begin("bench.round", fmt.Sprint(n), -1)
		u0 := readUsage()
		rr, err := b.round(roundCtx{tr: rt, root: root})
		u1 := readUsage()
		rt.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", n, err)
		}
		wall := u1.wall.Sub(u0.wall).Seconds()
		if rr.checkErr != nil {
			checkErrs = append(checkErrs, rr.checkErr)
		}
		if rt != nil {
			twalls = append(twalls, wall)
			continue
		}
		walls = append(walls, wall)
		cost := rr.cost
		if cost == nil {
			cost = &usageDelta{}
			cost.add(u0, u1)
		}
		cpu = append(cpu, cost.cpu.Seconds())
		alloc = append(alloc, float64(cost.alloc)/1e6)
		gcs = append(gcs, float64(u1.gcs-u0.gcs))
		ops = append(ops, rr.opsPerSec)
		lat = append(lat, rr.latMs...)
		attempted += rr.attempted
		failed += rr.failed
	}
	peakHeap = max(peakHeap, liveHeapAfterGC())
	if err := b.check(); err != nil {
		checkErrs = append(checkErrs, err)
	}

	res := &result{Correct: len(checkErrs) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if attempted == 0 {
		return nil, nil, errors.New("no operation attempted")
	}
	if !res.Correct {
		// A wrong output makes every operation of the run a failure.
		res.Failed = res.Attempted
	}
	notes := b.notes()
	seen := map[string]bool{}
	for _, e := range checkErrs {
		if msg := e.Error(); !seen[msg] {
			seen[msg] = true
			notes = append(notes, "CHECK FAILED: "+msg)
		}
	}
	d := summarize(lat)
	notes = append(notes, fmt.Sprintf("%s: %d rounds, %d ops attempted, %d failed (failed_frac %.4f); latency n=%d p50=%.4f ms p%g=%.4f ms",
		name, len(walls), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), d.N, d.P50, d.TailP, d.Tail))

	if !traced {
		vals := map[string]float64{
			"setup_s":        median(setups),
			"cpu_s":          median(cpu),
			"alloc_mb":       median(alloc),
			"peak_heap_mb":   float64(peakHeap) / 1e6,
			"ops_per_s":      median(ops),
			"latency_p50_ms": d.P50,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		return res, notes, nil
	}

	spans := tr.snapshot()
	ls := layerSet{}
	ls["runtime.gc_cycles"] = median(gcs)
	ls["bench.latency_tail_ms"] = d.Tail
	ls["trace.overhead"] = median(twalls) / median(walls)
	accountTrace(spans, median(walls), ls)
	if err := b.layers(spans, ls); err != nil {
		return nil, nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	if err := runLedger(ls); err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	path, err := writeTrace(traceDir, name, spans)
	if err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("trace: %d spans written to %s; tracing overhead %.3f (traced %.3f s ÷ untraced %.3f s per round)",
		len(spans), path, median(twalls)/median(walls), median(twalls), median(walls)))
	notes = append(notes, ls.render()...)
	res.Metrics = ls.metrics()
	return res, notes, nil
}
