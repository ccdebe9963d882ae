package probe

import (
	"bufio"
	"fmt"
	"io"

	"hpe/internal/sim"
)

// ChromeTraceConfig parameterises a ChromeTrace probe.
type ChromeTraceConfig struct {
	// CoreMHz converts simulated cycles to trace microseconds (the Chrome
	// trace_event time unit). Default: sim.CoreMHz, the Table I core clock.
	CoreMHz float64
	// SMs is the number of SM lanes to name; the driver lane is tid SMs.
	// Default: 15 (Table I).
	SMs int
	// Process names the trace's single process (shown in the viewer).
	// Default: "hpe".
	Process string
	// CloseOnFlush also closes the underlying writer on Flush when it
	// implements io.Closer (the right setting when streaming to a file).
	CloseOnFlush bool
}

// ChromeTrace streams the event stream as Chrome trace_event JSON (the
// JSON Object Format: {"traceEvents": [...]}), loadable in chrome://tracing
// and Perfetto. Each SM gets a lane (tid 0..SMs-1) carrying its TLB misses,
// walk hits and walker merges; the UVM driver gets one more lane (tid SMs)
// carrying faults (async begin/end pairs keyed by page, so queued faults
// overlap visibly), evictions, coalesces, HIR drains and prefetches.
//
// Events are written in emission order, which is simulated-time order, so
// timestamps are non-decreasing within every lane. Flush terminates the
// JSON document and is idempotent.
type ChromeTrace struct {
	bw     *bufio.Writer
	under  io.Writer
	cfg    ChromeTraceConfig
	events int
	closed bool
	err    error
}

// NewChromeTrace returns a probe streaming to w. The JSON header and lane
// metadata are written immediately.
func NewChromeTrace(w io.Writer, cfg ChromeTraceConfig) *ChromeTrace {
	if cfg.CoreMHz <= 0 {
		cfg.CoreMHz = sim.CoreMHz
	}
	if cfg.SMs <= 0 {
		cfg.SMs = 15
	}
	if cfg.Process == "" {
		cfg.Process = "hpe"
	}
	c := &ChromeTrace{bw: bufio.NewWriterSize(w, 1<<16), under: w, cfg: cfg}
	c.printf(`{"displayTimeUnit":"ms","traceEvents":[`)
	c.meta(`{"name":"process_name","ph":"M","pid":0,"args":{"name":%q}}`, cfg.Process)
	for i := 0; i < cfg.SMs; i++ {
		c.meta(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"SM %d"}}`, i, i)
	}
	c.meta(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"UVM driver"}}`, cfg.SMs)
	return c
}

// Err returns the first write error, if any (also returned by Flush).
func (c *ChromeTrace) Err() error { return c.err }

// printf appends raw text, capturing the first error.
func (c *ChromeTrace) printf(format string, args ...any) {
	if c.err != nil {
		return
	}
	if _, err := fmt.Fprintf(c.bw, format, args...); err != nil {
		c.err = err
	}
}

// meta writes one event object, prefixing the separator.
func (c *ChromeTrace) meta(format string, args ...any) {
	if c.events > 0 {
		c.printf(",\n")
	} else {
		c.printf("\n")
	}
	c.events++
	c.printf(format, args...)
}

// lane maps an event's SM field to a tid.
func (c *ChromeTrace) lane(sm int32) int {
	if sm < 0 {
		return c.cfg.SMs
	}
	return int(sm)
}

// us converts cycles to trace microseconds.
func (c *ChromeTrace) us(cy sim.Cycle) float64 { return float64(cy) / c.cfg.CoreMHz }

// Emit implements Probe.
func (c *ChromeTrace) Emit(ev Event) {
	if c.closed || c.err != nil {
		return
	}
	ts := c.us(ev.At)
	tid := c.lane(ev.SM)
	switch ev.Kind {
	case KindFaultBegin:
		c.meta(`{"name":"fault","cat":"uvm","ph":"b","id":%d,"pid":0,"tid":%d,"ts":%.4f,"args":{"page":%d,"seq":%d,"queue":%d}}`,
			uint64(ev.Page), tid, ts, uint64(ev.Page), ev.Seq, ev.A)
	case KindFaultEnd:
		c.meta(`{"name":"fault","cat":"uvm","ph":"e","id":%d,"pid":0,"tid":%d,"ts":%.4f,"args":{"latency_cycles":%d,"batched":%d}}`,
			uint64(ev.Page), tid, ts, ev.A, ev.B)
	case KindEviction:
		c.meta(`{"name":"evict","cat":"uvm","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"victim":%d,"for":%d}}`,
			tid, ts, uint64(ev.Page), ev.A)
	case KindCoalesce:
		c.meta(`{"name":"coalesce","cat":"uvm","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"page":%d,"seq":%d}}`,
			tid, ts, uint64(ev.Page), ev.Seq)
	case KindWalkHit:
		c.meta(`{"name":"walk_hit","cat":"walk","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"page":%d,"seq":%d}}`,
			tid, ts, uint64(ev.Page), ev.Seq)
	case KindWalkMerge:
		c.meta(`{"name":"walk_merge","cat":"walk","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"page":%d,"seq":%d}}`,
			tid, ts, uint64(ev.Page), ev.Seq)
	case KindHIRDrain:
		c.meta(`{"name":"hir_drain","cat":"hir","ph":"X","pid":0,"tid":%d,"ts":%.4f,"dur":%.4f,"args":{"entries":%d,"bytes":%d}}`,
			tid, ts, c.us(sim.Cycle(ev.C)), ev.A, ev.B)
	case KindHIRConflict:
		c.meta(`{"name":"hir_conflict","cat":"hir","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"page":%d}}`,
			tid, ts, uint64(ev.Page))
	case KindKernelBarrier:
		c.meta(`{"name":"kernel_barrier","cat":"sm","ph":"i","s":"g","pid":0,"tid":%d,"ts":%.4f,"args":{"index":%d,"seq":%d}}`,
			tid, ts, ev.A, ev.Seq)
	case KindTLBMiss:
		c.meta(`{"name":"tlb_miss","cat":"tlb","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"level":%d,"page":%d,"seq":%d}}`,
			tid, ts, ev.A, uint64(ev.Page), ev.Seq)
	case KindPrefetch:
		c.meta(`{"name":"prefetch","cat":"uvm","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.4f,"args":{"page":%d,"seq":%d}}`,
			tid, ts, uint64(ev.Page), ev.Seq)
	}
}

// Flush implements Probe: it terminates the JSON document, flushes buffers
// and (with CloseOnFlush) closes the writer. Idempotent.
func (c *ChromeTrace) Flush() error {
	if c.closed {
		return c.err
	}
	c.closed = true
	c.printf("\n]}\n")
	if err := c.bw.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	if c.cfg.CloseOnFlush {
		if cl, ok := c.under.(io.Closer); ok {
			if err := cl.Close(); err != nil && c.err == nil {
				c.err = err
			}
		}
	}
	return c.err
}
