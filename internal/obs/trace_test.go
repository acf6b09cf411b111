package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceDisabledIsNoOp(t *testing.T) {
	tr := &Trace{}
	tr.Emit("x", 1, 2, 3)
	if tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("disabled trace recorded an event")
	}
	if tr.Enabled() {
		t.Fatal("fresh trace reports enabled")
	}
}

func TestTraceRecordsAndWraps(t *testing.T) {
	tr := &Trace{}
	tr.Start(4)
	if !tr.Enabled() {
		t.Fatal("Start did not enable")
	}
	for i := 0; i < 10; i++ {
		tr.Emit("cat", int64(i), int64(2*i), int64(3*i))
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(6 + i) // oldest retained is seq 6
		if e.Seq != wantSeq || e.Cat != "cat" || e.A != int64(wantSeq) || e.B != 2*int64(wantSeq) || e.C != 3*int64(wantSeq) {
			t.Errorf("event %d = %+v, want seq %d", i, e, wantSeq)
		}
	}
	tr.Stop()
	tr.Emit("cat", 99, 0, 0)
	if tr.Total() != 10 {
		t.Error("Stop did not stop recording")
	}
	if len(tr.Events()) != 4 {
		t.Error("Stop discarded recorded events")
	}
	tr.Reset()
	if tr.Total() != 0 || tr.Events() != nil {
		t.Error("Reset left events behind")
	}
}

func TestTraceStartDefaultsCapacity(t *testing.T) {
	tr := &Trace{}
	tr.Start(0)
	defer tr.Stop()
	tr.Emit("a", 0, 0, 0)
	if got := len(tr.Events()); got != 1 {
		t.Fatalf("events = %d, want 1", got)
	}
	if len(tr.buf) != DefaultTraceCap {
		t.Fatalf("capacity = %d, want DefaultTraceCap", len(tr.buf))
	}
}

func TestTraceWriteJSONLines(t *testing.T) {
	tr := &Trace{}
	tr.Start(8)
	defer tr.Stop()
	tr.Emit("dist.round", 1, 5, 0)
	tr.Emit("dist.accuse", 3, 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if e.Seq != 1 || e.Cat != "dist.accuse" || e.A != 3 {
		t.Errorf("decoded event = %+v", e)
	}
}

func TestTraceEnabledPackageLevel(t *testing.T) {
	if TraceEnabled() {
		t.Fatal("default trace enabled at test start")
	}
	DefaultTrace.Start(4)
	defer func() {
		DefaultTrace.Stop()
		DefaultTrace.Reset()
	}()
	if !TraceEnabled() {
		t.Fatal("TraceEnabled = false after Start")
	}
	Emit("x", 1, 2, 3)
	if DefaultTrace.Total() != 1 {
		t.Fatal("package-level Emit did not reach the default trace")
	}
}

// Total returns the number of events emitted since Start, including
// any the ring has already overwritten.
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// TraceEnabled reports whether the default trace is recording —
// instrumentation sites that must compute an event's arguments guard
// on it.
func TraceEnabled() bool { return DefaultTrace.Enabled() }

// Enabled reports whether the trace is recording.
func (t *Trace) Enabled() bool { return t.on.Load() }
