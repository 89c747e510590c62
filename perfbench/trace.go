package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends; a nil tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
	reqs  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a root span under a fresh request ID.
func (t *tracer) request(name, query string) *spanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.reqs++
	req := t.reqs
	t.mu.Unlock()
	return t.begin(name, query, req, 0)
}

func (t *tracer) begin(name, query string, req, parent int64) *spanRef {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &spanRef{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Query: query, Start: int64(time.Since(t.t0))}}
}

// spanRef is an open span.
type spanRef struct {
	t *tracer
	s span
}

// child opens a span nested in r; nil-safe.
func (r *spanRef) child(name string) *spanRef {
	if r == nil {
		return nil
	}
	return r.t.begin(name, r.s.Query, r.s.Req, r.s.ID)
}

// end closes the span and returns its duration (zero for a nil span).
func (r *spanRef) end() time.Duration {
	if r == nil {
		return 0
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
	return r.s.dur()
}

// timed runs fn inside a child span of r and returns fn's wall time, which
// is measured without a span when r is nil.
func timed(r *spanRef, name string, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	c := r.child(name)
	fn()
	return c.end()
}

// side records a standalone span outside any request (setup steps and side
// measurements), nil-safe.
func (t *tracer) side(name, query string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	r := t.request(name, query)
	fn()
	return r.end()
}

// record adds a finished standalone span that lasted d and ended now.
func (t *tracer) record(name, query string, d time.Duration) {
	r := t.request(name, query)
	r.s.End = int64(time.Since(t.t0))
	r.s.Start = r.s.End - int64(d)
	t.mu.Lock()
	t.spans = append(t.spans, r.s)
	t.mu.Unlock()
}

// byName returns the durations of every span with the given name, grouped by
// query.
func (t *tracer) byName(name string) *perKey {
	p := newPerKey()
	for _, s := range t.spans {
		if s.Name == name {
			p.add(s.Query, float64(s.dur()))
		}
	}
	return p
}

// selfTimes computes, for every span, its duration minus the part of its
// interval covered by the union of its children.
func (t *tracer) selfTimes() map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range cs {
			st, en := max(c.Start, s.Start), min(c.End, s.End)
			if en <= st {
				continue
			}
			if open && st <= curE {
				curE = max(curE, en)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = st, en, true
		}
		if open {
			covered += curE - curS
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unaccountedShare is the mean, over spans named root, of the share of the
// span its children do not cover.
func (t *tracer) unaccountedShare(root string) (float64, int) {
	self := t.selfTimes()
	var shares []float64
	for _, s := range t.spans {
		if s.Name == root && s.End > s.Start {
			shares = append(shares, float64(self[s.ID])/float64(s.End-s.Start))
		}
	}
	return mean(shares), len(shares)
}

// write exports every span as one JSON line, with its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := t.selfTimes()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	for _, s := range t.spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(self[s.ID])}
		if err := enc.Encode(line); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
