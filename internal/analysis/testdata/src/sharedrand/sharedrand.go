// Package sharedrand holds sharedrand analyzer fixtures, distilled
// from the pre-PR 1 Lab.Audit bug: one *rand.Rand handed to a pool of
// workers, making every server's measurement noise depend on goroutine
// scheduling. perEntityStream is the approved replacement (what
// Lab.rngFor and measure.Batch do today).
package sharedrand

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"sync"
)

// parallelFor mirrors stream.ParallelFor — the callee-name
// heuristic treats it as a worker pool.
func parallelFor(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func sharedIntoGoStmt(rng *rand.Rand) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = rng.Int63() // want "shared into a go statement"
	}()
	wg.Wait()
}

func handedToGoroutine(rng *rand.Rand, done chan struct{}) {
	go consume(rng, done) // want "passed into a go statement"
}

func consume(rng *rand.Rand, done chan struct{}) {
	_ = rng.Float64()
	close(done)
}

func sharedIntoPool(rng *rand.Rand, out []float64) {
	parallelFor(len(out), func(i int) {
		out[i] = rng.Float64() // want "shared into a worker-pool closure"
	})
}

// perEntityStream derives an independent stream inside the closure —
// the approved pattern.
func perEntityStream(seeds []int64, out []float64) {
	parallelFor(len(out), func(i int) {
		rng := rand.New(rand.NewSource(seeds[i]))
		out[i] = rng.Float64()
	})
}

// serialComparator: sort.Slice runs its comparator on the calling
// goroutine, so capturing a stream there is fine.
func serialComparator(rng *rand.Rand, xs []int) {
	sort.Slice(xs, func(i, j int) bool {
		_ = rng
		return xs[i] < xs[j]
	})
}

// coordServer mirrors the pre-PR 5 atlasd shape: one stream stored on
// the server struct and drawn from inside handlers. The mutex fixes
// the data race but not the order dependence — every response still
// depends on which request got to the stream first.
type coordServer struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *coordServer) handleDraw(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	v := s.rng.Int63() // want "used inside HTTP handler handleDraw"
	s.mu.Unlock()
	fmt.Fprintln(w, v)
}

func handlerLiteral(rng *rand.Rand) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, rng.Int63()) // want "used inside HTTP handler handler literal"
	})
}

// statelessDraw is the approved replacement: the response is a pure
// function of (seed, request), so a stream derived inside the handler
// is private to the request and identical at any concurrency.
type statelessServer struct {
	seed int64
}

func (s *statelessServer) handleDraw(w http.ResponseWriter, r *http.Request) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", s.seed, r.URL.Query().Get("draw"))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	fmt.Fprintln(w, rng.Int63())
}
