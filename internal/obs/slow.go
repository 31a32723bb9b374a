package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one captured request in the slow-query log: identity,
// routing outcome, and the full execution report.
type SlowEntry struct {
	RequestID string    `json:"request_id"`
	Algo      string    `json:"algo,omitempty"`
	Engine    string    `json:"engine,omitempty"`
	Outcome   string    `json:"outcome"`
	Degraded  bool      `json:"degraded,omitempty"`
	Start     time.Time `json:"start"`
	DurMicros int64     `json:"dur_micros"`
	Trace     *Report   `json:"trace,omitempty"`
}

// SlowLog is an always-on capture buffer: it retains the N slowest
// requests seen so far plus a ring of the most recent N erroring or
// degraded requests, each with its full trace. The hot path is
// lock-cheap — once the slow set is full, requests faster than the
// current admission floor are rejected with a single atomic load and
// never touch the mutex, so steady-state traffic (fast requests) pays
// almost nothing.
type SlowLog struct {
	cap   int
	floor atomic.Int64 // admission threshold in µs once the slow set is full

	mu      sync.Mutex
	slow    []SlowEntry // min-heap by DurMicros; slow[0] is the fastest retained
	errs    []SlowEntry // FIFO ring, errPos is the next overwrite slot
	errPos  int
	errFull bool
}

// NewSlowLog returns a slow log retaining up to n slowest and n
// errored/degraded entries (n < 1 is clamped to 1).
func NewSlowLog(n int) *SlowLog {
	if n < 1 {
		n = 1
	}
	return &SlowLog{cap: n}
}

// Keeps reports, in one atomic load, whether Record would retain an
// unerrored request of durMicros: a caller asks before building a trace.
func (l *SlowLog) Keeps(durMicros int64) bool {
	return l != nil && durMicros > l.floor.Load()
}

// Record offers a completed request to the log. Errored or degraded
// requests always enter the error ring; every request competes for the
// slow set. Safe on nil and for concurrent use.
func (l *SlowLog) Record(e SlowEntry, errored bool) {
	if l == nil {
		return
	}
	if errored {
		l.mu.Lock()
		if len(l.errs) < l.cap {
			l.errs = append(l.errs, e)
		} else {
			l.errs[l.errPos] = e
			l.errPos = (l.errPos + 1) % l.cap
			l.errFull = true
		}
		l.mu.Unlock()
	}
	// Fast path: the slow set is full and this request is not slower
	// than the floor — one atomic load, no lock.
	if !l.Keeps(e.DurMicros) {
		return
	}
	l.mu.Lock()
	if len(l.slow) < l.cap {
		l.slow = append(l.slow, e)
		l.heapUp(len(l.slow) - 1)
		if len(l.slow) == l.cap {
			l.floor.Store(l.slow[0].DurMicros)
		}
	} else if e.DurMicros > l.slow[0].DurMicros {
		l.slow[0] = e
		l.heapDown(0)
		l.floor.Store(l.slow[0].DurMicros)
	}
	l.mu.Unlock()
}

func (l *SlowLog) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if l.slow[p].DurMicros <= l.slow[i].DurMicros {
			return
		}
		l.slow[p], l.slow[i] = l.slow[i], l.slow[p]
		i = p
	}
}

func (l *SlowLog) heapDown(i int) {
	n := len(l.slow)
	for {
		least := i
		if c := 2*i + 1; c < n && l.slow[c].DurMicros < l.slow[least].DurMicros {
			least = c
		}
		if c := 2*i + 2; c < n && l.slow[c].DurMicros < l.slow[least].DurMicros {
			least = c
		}
		if least == i {
			return
		}
		l.slow[i], l.slow[least] = l.slow[least], l.slow[i]
		i = least
	}
}

// SlowSnapshot is the /debug/slow payload.
type SlowSnapshot struct {
	Slowest []SlowEntry `json:"slowest"` // slowest first
	Errors  []SlowEntry `json:"errors"`  // newest first
}

// Snapshot copies the current contents: slowest requests in descending
// duration, errors newest-first. Safe on nil.
func (l *SlowLog) Snapshot() SlowSnapshot {
	if l == nil {
		return SlowSnapshot{}
	}
	l.mu.Lock()
	slow := make([]SlowEntry, len(l.slow))
	copy(slow, l.slow)
	errs := l.errsNewestFirstLocked()
	l.mu.Unlock()
	sort.Slice(slow, func(i, j int) bool { return slow[i].DurMicros > slow[j].DurMicros })
	return SlowSnapshot{Slowest: slow, Errors: errs}
}

func (l *SlowLog) errsNewestFirstLocked() []SlowEntry {
	out := make([]SlowEntry, 0, len(l.errs))
	if l.errFull {
		for i := 1; i <= len(l.errs); i++ {
			out = append(out, l.errs[(l.errPos-i+len(l.errs))%len(l.errs)])
		}
	} else {
		for i := len(l.errs) - 1; i >= 0; i-- {
			out = append(out, l.errs[i])
		}
	}
	return out
}

// Get returns the captured entry for a request id (the id an exemplar
// on /metrics points at) and whether it is retained. Safe on nil.
func (l *SlowLog) Get(id string) (SlowEntry, bool) {
	if l == nil {
		return SlowEntry{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.slow {
		if l.slow[i].RequestID == id {
			return l.slow[i], true
		}
	}
	for i := range l.errs {
		if l.errs[i].RequestID == id {
			return l.errs[i], true
		}
	}
	return SlowEntry{}, false
}

// Handler serves the slow log: the full snapshot, or one entry when
// queried with ?id=<request id> (404 if evicted or never captured).
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			e, ok := l.Get(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{"error": "trace not retained", "request_id": id})
				return
			}
			json.NewEncoder(w).Encode(e)
			return
		}
		json.NewEncoder(w).Encode(l.Snapshot())
	})
}
