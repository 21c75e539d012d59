package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into the engine's public API, and one around every layer-ladder rung.
// Spans live in preallocated memory and are written out when the run
// ends; stage stamps inside the engine are a later change. A request is
// one caller batch, or one tuple in per-tuple mode. Push calls are by far
// the most frequent (40 k/s on ingest_batch), so the dump keeps the span
// of one request in batchSampleEvery (perTupleSampleEvery in per-tuple
// mode) while the per-kind totals cover every timed call, and the last
// reservedSpans slots are kept for everything that is not a push, so no
// phase, rung or control-plane span is ever dropped. A result event
// links back to its request through the sequence number of the pair's
// later tuple.

type spanKind uint8

const (
	spanPhase spanKind = iota
	spanNew
	spanPushR
	spanPushS
	spanPushRBatch
	spanPushSBatch
	spanCheckpoint
	spanRestore
	spanClose
	spanSnapshot
	spanScrape
	spanRung
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"phase", "root.New", "root.PushR", "root.PushS", "root.PushRBatch", "root.PushSBatch",
	"root.Checkpoint", "root.Restore", "root.Close", "root.StatsSnapshot", "obs.scrape", "rung",
}

const (
	perTupleSampleEvery = 1024
	batchSampleEvery    = 64
	maxSpans            = 1 << 16
	reservedSpans       = 1 << 12
	maxResultEvents     = 1 << 16
)

func (k spanKind) isPush() bool { return k >= spanPushR && k <= spanPushSBatch }

type span struct {
	kind   spanKind
	label  string // phase or rung name
	req    uint64
	start  int64
	end    int64
	parent int32 // index of the enclosing phase span, -1 at top level
}

type resultEvent struct {
	at         int64
	rSeq, sSeq uint64
}

type tracer struct {
	epoch   time.Time
	spans   []span
	dropped uint64
	// phase is the innermost open phase or rung span (-1: none); open
	// holds the spans enclosing it.
	phase int32
	open  []int32
	// totalNs and count cover every span of a kind, stored or dropped.
	totalNs [numSpanKinds]int64
	count   [numSpanKinds]uint64

	// callerBatch is the tuples per request, sampleEvery the requests per
	// stored push span and recorded result.
	callerBatch, sampleEvery uint64

	// Result events are appended from the collector goroutine.
	results        []resultEvent
	nResults       atomic.Uint64
	resultsDropped atomic.Uint64
}

func newTracer(epoch time.Time, callerBatch int) *tracer {
	t := &tracer{
		epoch:       epoch,
		spans:       make([]span, 0, maxSpans),
		phase:       -1,
		results:     make([]resultEvent, maxResultEvents),
		callerBatch: uint64(callerBatch),
		sampleEvery: batchSampleEvery,
	}
	if callerBatch == 1 {
		t.sampleEvery = perTupleSampleEvery
	}
	return t
}

// sampled reports whether request req keeps its push spans and result
// events. Per-tuple mode does not even time the pushes of the others.
func (t *tracer) sampled(req uint64) bool { return req%t.sampleEvery == 0 }

// begin returns the span's start time. All tracer methods are no-ops on
// a nil tracer, so untraced runs pay one nil check per call site.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) end(kind spanKind, req uint64, start int64) {
	if t == nil {
		return
	}
	t.add(span{kind: kind, req: req, start: start, end: int64(time.Since(t.epoch)), parent: t.phase})
}

// add counts s into its kind's totals and stores it, unless it is the
// push span of an unsampled request or the buffer is full for its kind.
func (t *tracer) add(s span) int32 {
	t.totalNs[s.kind] += s.end - s.start
	t.count[s.kind]++
	room := cap(t.spans)
	if s.kind.isPush() {
		if !t.sampled(s.req) {
			return -1
		}
		room -= reservedSpans
	}
	if len(t.spans) >= room {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// enter opens a phase (or rung) span that parents every span recorded
// until the matching leave.
func (t *tracer) enter(kind spanKind, label string) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.open = append(t.open, t.phase)
	t.phase = t.add(span{kind: kind, label: label, start: now, end: now, parent: t.phase})
}

// leave closes the innermost open phase span.
func (t *tracer) leave() {
	if t == nil || len(t.open) == 0 {
		return
	}
	if t.phase >= 0 {
		s := &t.spans[t.phase]
		s.end = int64(time.Since(t.epoch))
		t.totalNs[s.kind] += s.end - s.start
	}
	t.phase, t.open = t.open[len(t.open)-1], t.open[:len(t.open)-1]
}

// result records a result event when the pair's later tuple belongs to
// a sampled request. Called from OnOutput.
func (t *tracer) result(rSeq, sSeq uint64) {
	if !t.sampled(max(rSeq, sSeq) / t.callerBatch) {
		return
	}
	i := t.nResults.Add(1) - 1
	if i >= maxResultEvents {
		t.resultsDropped.Add(1)
		return
	}
	t.results[i] = resultEvent{at: int64(time.Since(t.epoch)), rSeq: rSeq, sSeq: sSeq}
}

// pushTotals returns the time and the count of every push span so far.
func (t *tracer) pushTotals() (ns int64, n uint64) {
	if t == nil {
		return 0, 0
	}
	for _, k := range []spanKind{spanPushR, spanPushS, spanPushRBatch, spanPushSBatch} {
		ns += t.totalNs[k]
		n += t.count[k]
	}
	return ns, n
}

type spanJSON struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

type resultJSON struct {
	At  int64  `json:"at_ns"`
	R   uint64 `json:"r_seq"`
	S   uint64 `json:"s_seq"`
	Req uint64 `json:"req"`
}

// write dumps spans, result events and per-kind totals as one JSON
// document.
func (t *tracer) write(path string, extra map[string]any) error {
	spans := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		name := spanNames[s.kind]
		if s.label != "" {
			name = s.label
		}
		spans[i] = spanJSON{Name: name, Req: s.req, Start: s.start, End: s.end, Parent: s.parent}
	}
	n := min(t.nResults.Load(), maxResultEvents)
	results := make([]resultJSON, n)
	for i := range results {
		e := t.results[i]
		results[i] = resultJSON{At: e.at, R: e.rSeq, S: e.sSeq, Req: max(e.rSeq, e.sSeq) / t.callerBatch}
	}
	counts := map[string]any{}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if t.count[k] > 0 {
			counts[spanNames[k]] = map[string]any{"count": t.count[k], "total_ns": t.totalNs[k]}
		}
	}
	doc := map[string]any{
		"spans":         spans,
		"spans_dropped": t.dropped,
		// Push spans and result events are kept for one request in this
		// many; span_totals covers every timed call.
		"request_sample_every": t.sampleEvery,
		"results":              results,
		"results_dropped":      t.resultsDropped.Load(),
		"span_totals":          counts,
	}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
