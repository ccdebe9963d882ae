package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer; the
// program itself is not instrumented. A nil *tracer records nothing, so the
// same call sites serve the untraced passes.

// span is one timed call. Spans of one op share Op; Parent is the index of
// the enclosing span, or -1.
type span struct {
	Name       string
	Op         int64
	Parent     int
	Start, End time.Duration // since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begun as id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-measured span (for calls timed on another
// goroutine's clock, such as a backend handler).
func (t *tracer) record(name string, op int64, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// selfTimes returns each closed span's duration minus the part of its
// interval covered by its children, indexed like t.spans.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[i] = s.End - s.Start - covered(t.spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi]. Children may overlap when they ran on different goroutines.
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if spans[k].End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName groups self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	self := t.selfTimes()
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], self[i])
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file (open it in
// chrome://tracing or ui.perfetto.dev). Each op is one track, so the spans
// of a request or simulation line up; args carry the op, parent and self
// time.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	first := true
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		b, err := json.Marshal(event{Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3}})
		if err != nil {
			f.Close()
			return err
		}
		if !first {
			w.WriteString(",\n")
		}
		first = false
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
