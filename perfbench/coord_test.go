package main

import (
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// sleeper is a stub handler that takes a fixed time per request.
type sleeper struct{ d time.Duration }

func (s sleeper) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	time.Sleep(s.d)
	w.Write([]byte("ok"))
}

func stubRequests(n int) []*http.Request {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/model/x", nil)
	}
	return reqs
}

// An open loop times every request from its due time: with one worker
// and a 5 ms handler at 1000 requests/s, request i is due at i ms but
// cannot finish before (i+1)·5 ms, so its latency includes the whole
// backlog ahead of it, while the generator itself is not late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, serviceMs = 20, 5
	res := replay(sleeper{serviceMs * time.Millisecond}, stubRequests(n), 1000, 1, nil, -1)
	for i, lat := range res.latMs {
		if floor := float64((i+1)*serviceMs - i); lat < floor {
			t.Errorf("request %d: latency %.2f ms, below the %.0f ms its queue forces", i, lat, floor)
		}
	}
	// Only the first request finds the worker idle; every later one
	// waits on its predecessor, which is queueing, not generator lag.
	if lag := summarize(res.lagMs); lag.P50 > 1 {
		t.Errorf("generator lag p50 %.3f ms: queueing was counted as lateness", lag.P50)
	}
	if last := res.latMs[n-1]; last < 80 {
		t.Errorf("last request latency %.1f ms; the backlog should reach ~%d ms", last, n*serviceMs-(n-1))
	}
}

// A worker that is idle and starts a request late is the generator's
// fault: the lag is how late it started.
func TestOpenLoopLagIsIdleLateness(t *testing.T) {
	res := replay(sleeper{0}, stubRequests(10), 200, 2, nil, -1)
	for i, lag := range res.lagMs {
		if lag < 0 {
			t.Errorf("request %d: negative lag %v", i, lag)
		}
	}
	// At 200/s with an instant handler nothing queues, so latency is
	// the lag plus the (tiny) service time.
	for i := range res.latMs {
		if res.latMs[i] < res.lagMs[i] {
			t.Errorf("request %d: latency %.3f below lag %.3f", i, res.latMs[i], res.lagMs[i])
		}
	}
}

func TestClosedLoopServesEveryRequestOnce(t *testing.T) {
	res := replay(sleeper{time.Millisecond}, stubRequests(12), 0, 3, nil, -1)
	for i, st := range res.status {
		if st != http.StatusOK || res.digests[i] != sha256.Sum256([]byte("ok")) {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	// 12 one-millisecond requests on 3 workers take about 4 ms.
	if res.wall < 4*time.Millisecond || res.wall > 200*time.Millisecond {
		t.Errorf("closed-loop wall %v", res.wall)
	}
}

func TestCheckReplayRejectsCorruptedResponses(t *testing.T) {
	ok := sha256.Sum256([]byte("ok"))
	trace := []recorded{{method: "GET", target: "/a", status: 200, digest: ok}, {method: "POST", target: "/b", status: 202, digest: ok}}
	good := replayResult{status: []int{200, 202}, digests: [][32]byte{ok, ok}}
	if f, err := checkReplay(trace, good); f != 0 || err != nil {
		t.Fatalf("identical replay: %d failed, %v", f, err)
	}
	body := replayResult{status: []int{200, 202}, digests: [][32]byte{ok, sha256.Sum256([]byte("no"))}}
	if f, err := checkReplay(trace, body); f != 1 || err == nil {
		t.Errorf("changed body: %d failed, %v", f, err)
	}
	shed := replayResult{status: []int{429, 202}, digests: [][32]byte{ok, ok}}
	if f, err := checkReplay(trace, shed); f != 1 || err == nil {
		t.Errorf("429: %d failed, %v", f, err)
	}
	// A non-2xx answer fails even when the recording had it too.
	trace[0].status = 503
	same503 := replayResult{status: []int{503, 202}, digests: [][32]byte{ok, ok}}
	if f, _ := checkReplay(trace, same503); f != 1 {
		t.Errorf("recorded 503 replayed as 503 counted %d failed, want 1", f)
	}
}

func TestEndpointOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/landmarks/phase1": "phase1", "/v1/landmarks/phase2": "phase2",
		"/v1/model/anchor-1": "model", "/v1/report": "report", "/v1/metrics": "other",
	} {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", path, got, want)
		}
	}
}
