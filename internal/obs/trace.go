package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Attr is one typed key/value annotation on a span (engine@generation,
// cache outcome, coalesce role, ...).
type Attr struct {
	Key   string
	Value any
}

// CountDelta is one named op-count delta attributed to a span — the
// portion of a core.Stats counter that this span's own work (excluding
// child spans) accounts for.
type CountDelta struct {
	Name string
	V    int64
}

// Span is one stage of a request. Spans nest: a compute span contains
// the algorithm span, which may contain sub-algorithm spans (APX-sum
// delegating to GD). Name, Start and Dur are exported for the flat
// accessors; attributes, counts and children are reached through
// methods so nil spans (tracing disabled) stay safe to annotate.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration

	attrs    []Attr
	counts   []CountDelta
	children []*Span
	parent   *Span
	tr       *Trace
}

// Trace records the stages of one request as a tree of spans so
// structured logs, the EXPLAIN report and the slow-query log can
// attribute latency and op counts instead of reporting one opaque wall
// time. A Trace belongs to a single goroutine.
type Trace struct {
	ID   string
	root *Span
	cur  *Span
	done []*Span
}

// NewTrace returns a trace tagged with a request id. The root span is
// open from this moment and represents the whole request.
func NewTrace(id string) *Trace {
	t := &Trace{ID: id}
	t.root = &Span{Name: "request", Start: time.Now(), tr: t}
	t.cur = t.root
	return t
}

// Root returns the span covering the whole request (nil for a nil
// trace). Request-scoped attributes (engine, outcome, degraded) belong
// here.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child of the innermost open span and makes it
// current. Returns nil (safe to annotate and End) on a nil trace.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{Name: name, Start: time.Now(), parent: t.cur, tr: t}
	t.cur.children = append(t.cur.children, sp)
	t.cur = sp
	return sp
}

// End closes the span, records its duration, and pops it off the
// trace's open stack. Safe on nil; ending twice keeps the first
// duration.
func (s *Span) End() {
	if s == nil || s.Dur != 0 {
		return
	}
	s.Dur = time.Since(s.Start)
	if s.tr != nil {
		s.tr.done = append(s.tr.done, s)
		if s.tr.cur == s {
			s.tr.cur = s.parent
		}
	}
}

// SetAttr annotates the span. Safe on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Count attributes a named op-count delta to this span. Zero deltas are
// dropped so reports only list counters the span actually moved. Safe
// on nil.
func (s *Span) Count(name string, v int64) {
	if s == nil || v == 0 {
		return
	}
	s.counts = append(s.counts, CountDelta{Name: name, V: v})
}

// CountValue returns the span's own delta for a named counter
// (excluding children).
func (s *Span) CountValue(name string) int64 {
	if s == nil {
		return 0
	}
	var v int64
	for _, c := range s.counts {
		if c.Name == name {
			v += c.V
		}
	}
	return v
}

// SubtreeCount returns the named counter summed over this span and all
// descendants.
func (s *Span) SubtreeCount(name string) int64 {
	if s == nil {
		return 0
	}
	v := s.CountValue(name)
	for _, c := range s.children {
		v += c.SubtreeCount(name)
	}
	return v
}

// ChildrenCount sums the named counter over the span's child subtrees —
// what a parent subtracts from its raw Stats delta so its own count is
// self time, keeping per-span counts disjoint (they sum to the request
// total).
func (s *Span) ChildrenCount(name string) int64 {
	if s == nil {
		return 0
	}
	var v int64
	for _, c := range s.children {
		v += c.SubtreeCount(name)
	}
	return v
}

// Dur returns the recorded duration of the first completed span with
// the given name (0 if absent).
func (t *Trace) Dur(name string) time.Duration {
	if t == nil {
		return 0
	}
	for _, sp := range t.done {
		if sp.Name == name {
			return sp.Dur
		}
	}
	return 0
}

// reqPrefix is a per-process random tag so request ids from different
// server instances never collide in aggregated logs; reqSeq disambiguates
// within the process.
var (
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to a time-derived tag; ids stay unique per process.
			return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
		}
		return hex.EncodeToString(b[:])
	}()
	reqSeq atomic.Uint64
)

// NewRequestID returns a process-unique request id ("d3adbeef-42").
// It is cheap (one atomic add, one allocation for the string at any
// sequence number) and collision-resistant across processes via the
// random per-process prefix.
func NewRequestID() string {
	var b [32]byte // 8-hex prefix, '-', at most 20 digits
	id := append(append(b[:0], reqPrefix...), '-')
	return string(strconv.AppendUint(id, reqSeq.Add(1), 10))
}
