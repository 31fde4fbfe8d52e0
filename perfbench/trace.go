package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call: a named interval with the span that caused
// it. Spans of one request share Req (a server ID or a trace index).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`   // "<layer>.<op>"
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span's name belongs to.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op and returns span ID -1,
// so instrumented code paths need no branches.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere, such as a
// telemetry stage or a batch callback.
func (t *tracer) record(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// setParent attaches span id under parent, for a parent recorded only
// after its child.
func (t *tracer) setParent(id, parent int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Parent = parent
	t.mu.Unlock()
}

// adopt re-parents every span named child onto the sibling span named
// parent whose interval contains it. Callbacks that report a batch only
// after it ends leave the calls made inside it attached to the batch's
// parent; adopt restores the nesting.
func (t *tracer) adopt(parent, child string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var hosts []int
	for i, s := range t.spans {
		if s.Name == parent {
			hosts = append(hosts, i)
		}
	}
	sort.Slice(hosts, func(a, b int) bool { return t.spans[hosts[a]].Start < t.spans[hosts[b]].Start })
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child {
			continue
		}
		// The last host starting at or before the child is the only one
		// that can contain it: hosts of one parent never overlap.
		k := sort.Search(len(hosts), func(j int) bool { return t.spans[hosts[j]].Start > c.Start }) - 1
		if k < 0 {
			continue
		}
		h := t.spans[hosts[k]]
		if h.Parent == c.Parent && c.End <= h.End {
			c.Parent = h.ID
		}
	}
}

// snapshot returns a copy of the spans, with any span still open
// closed at the latest end seen.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	var last time.Duration
	for _, s := range out {
		if s.End > last {
			last = s.End
		}
	}
	for i := range out {
		if out[i].End < 0 {
			out[i].End = last
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children that overlap
// each other (calls made from parallel workers) count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [start, end] covered by the union of the
// spans' intervals.
func covered(start, end time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spansNamed returns the durations, in milliseconds, of every span with
// the given name.
func spansNamed(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeTrace writes the spans as JSON lines under dir, one file per
// workload.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the write error is the one to report
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one to report
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, f.Close()
}
