package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Event is one structured trace record: a static category string plus
// three small integer arguments whose meaning the category defines
// (documented at each Emit site; DESIGN.md §10 lists them all). The
// value-typed layout keeps emission allocation-free — the ring slot
// is overwritten in place and Cat is a string constant at every call
// site.
type Event struct {
	Seq uint64 `json:"seq"` // monotone emission index since Start
	Cat string `json:"cat"`
	A   int64  `json:"a"`
	B   int64  `json:"b"`
	C   int64  `json:"c"`
}

// Trace is a bounded ring of Events: when the ring is full the oldest
// record is overwritten, so a long run keeps the most recent window —
// the part an operator investigating a live problem actually wants —
// at fixed memory cost. Disabled (the default), Emit is one atomic
// load.
type Trace struct {
	on atomic.Bool
	mu sync.Mutex
	// buf is the ring; n counts every Emit since Start, so buf[n%len]
	// is the next slot and min(n, len) slots are live.
	buf []Event
	n   uint64
}

// DefaultTraceCap is the ring capacity Start(0) uses.
const DefaultTraceCap = 4096

// DefaultTrace is the process-wide trace the package-level Emit feeds
// and the -trace CLI flag drains.
var DefaultTrace = &Trace{}

// Start clears the ring, sizes it to capacity (DefaultTraceCap if
// capacity <= 0) and enables emission.
func (t *Trace) Start(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	t.mu.Lock()
	t.buf = make([]Event, capacity)
	t.n = 0
	t.mu.Unlock()
	t.on.Store(true)
}

// Stop disables emission; recorded events remain readable.
func (t *Trace) Stop() { t.on.Store(false) }

// Reset discards all recorded events (and keeps the enabled state).
func (t *Trace) Reset() {
	t.mu.Lock()
	t.n = 0
	t.mu.Unlock()
}

// Emit appends one event. A no-op unless Start has enabled the trace.
func (t *Trace) Emit(cat string, a, b, c int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.buf) > 0 {
		t.buf[t.n%uint64(len(t.buf))] = Event{Seq: t.n, Cat: cat, A: a, B: b, C: c}
		t.n++
	}
	t.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.buf))
	if size == 0 || t.n == 0 {
		return nil
	}
	live := t.n
	if live > size {
		live = size
	}
	out := make([]Event, 0, live)
	for i := t.n - live; i < t.n; i++ {
		out = append(out, t.buf[i%size])
	}
	return out
}

// WriteJSONLines writes the retained events oldest-first, one compact
// JSON object per line.
func (t *Trace) WriteJSONLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Emit appends one event to the default trace.
func Emit(cat string, a, b, c int64) { DefaultTrace.Emit(cat, a, b, c) }
