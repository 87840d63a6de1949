package telemetry

import "time"

// Span times one stage of work and records the elapsed nanoseconds
// into a Histogram when ended. It is a value type — no allocation, no
// goroutine, no context — designed so the instrumented loop pays only
// two time.Now calls per stage:
//
//	sp := telemetry.StartSpan(h)
//	... stage ...
//	sp.End()
//
// StartSpan on a nil histogram returns an inert span whose End is a
// no-op and which reads no clock, so disabled telemetry costs one nil
// check per stage.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing against h.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed time. Safe to call on the zero Span.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(int64(time.Since(s.start)))
	}
}
