package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// rawRootLimit is how many root spans (campaign iterations, evaluated
// classes, API requests) keep their raw spans for the Chrome trace;
// aggregates cover every span of the run.
const rawRootLimit = 5000

// tracer records spans from benchmark code only, in memory, around
// calls into the program's layers. A root span covers one unit of work
// and its layer calls are its children; children never overlap, so a
// root's self time is its duration minus theirs and a leaf's self time
// is its duration. A nil *tracer records nothing.
type tracer struct {
	base   time.Time
	events []traceEvent
	agg    map[string]*spanAgg

	rootID    int
	rootStart time.Time
	childDur  time.Duration
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	// Root marks unit-of-work spans, whose self time is benchmark glue
	// rather than a layer of the program.
	Root bool `json:"root,omitempty"`
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), agg: map[string]*spanAgg{}}
}

func (t *tracer) aggFor(name string) *spanAgg {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	return a
}

func (t *tracer) emit(name string, start time.Time, d time.Duration, args map[string]any) {
	cat, _, _ := strings.Cut(name, ".")
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.Sub(t.base).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		Pid: 1, Tid: 1, Args: args,
	})
}

// beginRoot opens unit of work id. Ids start at 0 and are unique
// within a run; the first rawRootLimit keep their raw spans.
func (t *tracer) beginRoot(id int) {
	if t == nil {
		return
	}
	t.rootID = id
	t.childDur = 0
	t.rootStart = time.Now()
}

// endRoot closes the open unit of work under name.
func (t *tracer) endRoot(name string) {
	if t == nil {
		return
	}
	d := time.Since(t.rootStart)
	a := t.aggFor(name)
	a.Root = true
	a.Count++
	a.TotalNs += int64(d)
	a.SelfNs += int64(d - t.childDur)
	if t.rootID < rawRootLimit {
		t.emit(name, t.rootStart, d, map[string]any{"root": t.rootID})
	}
}

// child records a layer call that started at start and ends now,
// inside the open root.
func (t *tracer) child(name string, start time.Time) {
	if t == nil {
		return
	}
	d := t.leaf(name, start, t.rootID)
	t.childDur += d
}

// leaf records a layer call made on behalf of unit of work id outside
// that unit's root interval (an iteration's draw runs while an earlier
// iteration commits).
func (t *tracer) leaf(name string, start time.Time, id int) time.Duration {
	d := time.Since(start)
	if t == nil {
		return d
	}
	a := t.aggFor(name)
	a.Count++
	a.TotalNs += int64(d)
	a.SelfNs += int64(d)
	if id < rawRootLimit {
		t.emit(name, start, d, map[string]any{"root": id})
	}
	return d
}

// span records a standalone layer call (one outside any root, such as
// building an epoch's scheduler) that started at start and ends now.
// Standalone spans are few, so they always keep their raw event.
func (t *tracer) span(name string, start time.Time, args map[string]any) time.Duration {
	return t.interval(name, start, time.Now(), args)
}

// interval records a standalone span from start to end.
func (t *tracer) interval(name string, start, end time.Time, args map[string]any) time.Duration {
	d := end.Sub(start)
	if t == nil {
		return d
	}
	a := t.aggFor(name)
	a.Count++
	a.TotalNs += int64(d)
	a.SelfNs += int64(d)
	t.emit(name, start, d, args)
	return d
}

// selfNs returns the summed self time of the named spans.
func (t *tracer) selfNs(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.SelfNs
	}
	return 0
}

func (t *tracer) count(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.Count
	}
	return 0
}

// layerSelfNs sums the self time of every non-root span: the time the
// replay spent inside the program's layers.
func (t *tracer) layerSelfNs() int64 {
	var sum int64
	for _, a := range t.agg {
		if !a.Root {
			sum += a.SelfNs
		}
	}
	return sum
}

// writeChrome stores the raw spans as a Chrome trace-event file.
func (t *tracer) writeChrome(path string) error {
	events := t.events
	if events == nil {
		events = []traceEvent{}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
