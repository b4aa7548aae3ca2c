package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vitis/internal/core"
	"vitis/internal/idspace"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/store"
	"vitis/internal/tman"
	"vitis/internal/transport"
)

// kind is the protocol layer a message belongs to. Layer names are the
// module names, so a per-layer figure points straight at the code to read.
type kind uint8

const (
	kSampling kind = iota
	kTMan
	kProfile
	kRelay
	kNotification
	kPull
	kReplay
	kCatchUp
	kOther
	numKinds
)

var kindNames = [numKinds]string{
	"sampling", "tman", "core.profile", "core.relay", "core.notification",
	"core.pull", "core.replay", "core.catchup", "other",
}

func kindOf(msg simnet.Message) kind {
	switch msg.(type) {
	case sampling.Request, sampling.Reply, sampling.ShuffleRequest, sampling.ShuffleReply:
		return kSampling
	case tman.Request, tman.Reply:
		return kTMan
	case core.ProfileMsg:
		return kProfile
	case core.RelayMsg:
		return kRelay
	case core.Notification:
		return kNotification
	case core.PullReq, core.PullResp:
		return kPull
	case core.ReplayReq:
		return kReplay
	case core.CatchUpReq, core.CatchUpResp:
		return kCatchUp
	}
	return kOther
}

// Span names. A message kind k has a handler span (k) and a send span
// (numKinds+k); the fixed names follow.
const (
	spanPhaseWarmup = 2*uint16(numKinds) + iota
	spanPhaseWindow
	spanPhaseDrain
	spanPhaseCatchUp
	spanStoreAppend
	spanStoreReadRange
	spanHook
	spanTransportSend
	numSpanNames
)

func handlerSpan(k kind) uint16 { return uint16(k) }
func sendSpan(k kind) uint16    { return uint16(numKinds) + uint16(k) }

var phaseSpans = [...]uint16{spanPhaseWarmup, spanPhaseWindow, spanPhaseDrain, spanPhaseCatchUp}

var phaseNames = [...]string{"warmup", "window", "drain", "catchup"}

func spanName(id uint16) string {
	switch {
	case id < uint16(numKinds):
		return kindNames[id] + ".handler"
	case id < 2*uint16(numKinds):
		return kindNames[id-uint16(numKinds)] + ".send"
	case id >= spanPhaseWarmup && id <= spanPhaseCatchUp:
		return "simnet.phase." + phaseNames[id-spanPhaseWarmup]
	}
	return map[uint16]string{
		spanStoreAppend:    "store.append",
		spanStoreReadRange: "store.read_range",
		spanHook:           "metrics.hook",
		spanTransportSend:  "transport.send",
	}[id]
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

const (
	chunkSpans = 1 << 16
	// maxStoredSpans bounds the spans one tracer keeps for the span file
	// (24 bytes each). Later spans still count in the totals, which are
	// exact for every span.
	maxStoredSpans = 1 << 22
)

// frame is an open span: its stored index (-1 when past the storage
// bound), name, start, and the summed duration of its finished children.
type frame struct {
	idx   int32
	name  uint16
	start int64
	child int64
}

// tracer records the spans of one goroutine. Calls nest strictly on that
// goroutine, so a stack of open spans gives every span its parent and lets
// self time (duration minus the children's) be summed as spans close.
// Stored spans sit in fixed-size chunks so a long run never copies them.
type tracer struct {
	base    time.Time
	chunks  [][]span
	n       int32 // stored spans
	dropped uint64
	stack   []frame
	totals  spanTotals
}

// spanTotals aggregates spans by name: how many, their summed duration,
// and their summed self time.
type spanTotals struct {
	count [numSpanNames]uint64
	total [numSpanNames]time.Duration
	self  [numSpanNames]time.Duration
}

func (s *spanTotals) add(o *spanTotals) {
	for i := range s.count {
		s.count[i] += o.count[i]
		s.total[i] += o.total[i]
		s.self[i] += o.self[i]
	}
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) at(i int32) *span { return &t.chunks[i/chunkSpans][i%chunkSpans] }

func (t *tracer) begin(name uint16) {
	now := int64(time.Since(t.base))
	idx := int32(-1)
	if t.n < maxStoredSpans {
		if int(t.n)%chunkSpans == 0 {
			t.chunks = append(t.chunks, make([]span, chunkSpans))
		}
		idx = t.n
		t.n++
		parent := int32(-1)
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].idx
		}
		*t.at(idx) = span{name: name, parent: parent, start: now}
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{idx: idx, name: name, start: now})
}

func (t *tracer) end() {
	now := int64(time.Since(t.base))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if f.idx >= 0 {
		t.at(f.idx).end = now
	}
	d := now - f.start
	t.totals.count[f.name]++
	t.totals.total[f.name] += time.Duration(d)
	t.totals.self[f.name] += time.Duration(d - f.child)
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
}

// writeSpans stores the spans the given tracers kept in dir/name: a JSON
// header line naming the span ids, then one little-endian record per span
// (tracer u16, name u16, parent i32, start i64, end i64).
func writeSpans(dir, name string, ts []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	names := make([]string, numSpanNames)
	for i := range names {
		names[i] = spanName(uint16(i))
	}
	var dropped uint64
	for _, t := range ts {
		dropped += t.dropped
	}
	hdr, err := json.Marshal(map[string]any{"names": names, "record_bytes": 24, "spans_not_kept": dropped})
	if err != nil {
		return "", err
	}
	w.Write(hdr)
	w.WriteByte('\n')
	var rec [24]byte
	for ti, t := range ts {
		for i := int32(0); i < t.n; i++ {
			sp := t.at(i)
			binary.LittleEndian.PutUint16(rec[0:], uint16(ti))
			binary.LittleEndian.PutUint16(rec[2:], sp.name)
			binary.LittleEndian.PutUint32(rec[4:], uint32(sp.parent))
			binary.LittleEndian.PutUint64(rec[8:], uint64(sp.start))
			binary.LittleEndian.PutUint64(rec[16:], uint64(sp.end))
			w.Write(rec[:])
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// kindCounts tallies messages and modelled wire bytes (simnet.WireSizeOf)
// by kind at the Send seam.
type kindCounts struct {
	msgs, bytes [numKinds]uint64
}

func (c *kindCounts) addAll(o *kindCounts) {
	for k := range c.msgs {
		c.msgs[k] += o.msgs[k]
		c.bytes[k] += o.bytes[k]
	}
}

// tracedNet wraps a simnet.Net: every Send and every delivery to a handler
// passed to Attach becomes a span named after the message kind.
type tracedNet struct {
	simnet.Net
	t      *tracer
	counts kindCounts
}

func (n *tracedNet) Send(from, to simnet.NodeID, msg simnet.Message) {
	k := kindOf(msg)
	n.counts.msgs[k]++
	n.counts.bytes[k] += uint64(simnet.WireSizeOf(msg))
	n.t.begin(sendSpan(k))
	n.Net.Send(from, to, msg)
	n.t.end()
}

func (n *tracedNet) Attach(id simnet.NodeID, h simnet.Handler) {
	n.Net.Attach(id, tracedHandler{h: h, t: n.t})
}

type tracedHandler struct {
	h simnet.Handler
	t *tracer
}

func (h tracedHandler) Deliver(from simnet.NodeID, msg simnet.Message) {
	h.t.begin(handlerSpan(kindOf(msg)))
	h.h.Deliver(from, msg)
	h.t.end()
}

// tracedStore wraps an event store's append and range-read paths.
type tracedStore struct {
	store.EventStore
	t *tracer
}

func (s tracedStore) Append(rec store.Record) (uint64, error) {
	s.t.begin(spanStoreAppend)
	seq, err := s.EventStore.Append(rec)
	s.t.end()
	return seq, err
}

func (s tracedStore) ReadRange(topic idspace.ID, after uint64, maxBytes int) (store.Page, error) {
	s.t.begin(spanStoreReadRange)
	p, err := s.EventStore.ReadRange(topic, after, maxBytes)
	s.t.end()
	return p, err
}

// tracedTransport wraps a transport's Send, which the host calls on its
// driver goroutine.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tr tracedTransport) Send(from, to simnet.NodeID, msg simnet.Message) error {
	tr.t.begin(spanTransportSend)
	err := tr.Transport.Send(from, to, msg)
	tr.t.end()
	return err
}

// tracedHooks wraps the delivery and notification callbacks the benchmark
// installs in core.Hooks.
func tracedHooks(h core.Hooks, t *tracer) core.Hooks {
	deliver, notify := h.OnDeliver, h.OnNotification
	h.OnDeliver = func(node core.NodeID, topic core.TopicID, ev core.EventID, hops int) {
		t.begin(spanHook)
		deliver(node, topic, ev, hops)
		t.end()
	}
	h.OnNotification = func(node core.NodeID, topic core.TopicID, interested bool) {
		t.begin(spanHook)
		notify(node, topic, interested)
		t.end()
	}
	return h
}
