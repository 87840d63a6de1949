package campaign

import (
	"fmt"
	"io"

	"repro/internal/coverage"
)

// Event is one engine occurrence, delivered to the Observer as a typed
// struct. All events fire from the sequential draw/commit stages, so
// for a fixed campaign configuration the event sequence is identical at
// any worker count. Those stages run under the engine's sequencer, on
// whichever goroutine holds it: the caller of Run for the first
// window's draws, then whichever worker found the window's head
// finished. Events therefore arrive one at a time, each ordered after
// the last, and observers driven by a single engine need no locking;
// an observer shared across concurrent campaigns must synchronise
// itself. An observer that blocks stalls the worker holding the
// sequencer, and with it every draw and commit of the campaign.
//
// The concrete event types are IterationStarted, Mutated, Executed,
// Accepted and SelectorUpdated. Counts of them live in the engine's
// campaign.* telemetry counters; observers are for per-event work.
type Event interface {
	// campaignEvent marks the closed set of event types.
	campaignEvent()
}

// IterationStarted fires at the draw stage, before the iteration's
// work is dispatched.
type IterationStarted struct {
	Iter      int
	PoolIndex int
	MutatorID int
}

// Mutated fires at commit with the mutator-application outcome.
// Applied is false when the mutator was inapplicable to the drawn seed
// or the mutant failed to lower (the Soot-style dump failure).
type Mutated struct {
	Iter      int
	MutatorID int
	Applied   bool
}

// Executed fires at commit for every coverage-directed iteration that
// produced a classfile; Skipped reports that the prefilter's trace
// cache stood in for the reference-VM run.
type Executed struct {
	Iter    int
	Skipped bool
}

// Accepted fires at commit when the mutant joined TestClasses.
type Accepted struct {
	Iter  int
	Name  string
	Stats coverage.Stats
}

// SelectorUpdated fires once per committed iteration, after the
// selector received its feedback.
type SelectorUpdated struct {
	Iter      int
	MutatorID int
	Success   bool
}

func (IterationStarted) campaignEvent() {}
func (Mutated) campaignEvent()          {}
func (Executed) campaignEvent()         {}
func (Accepted) campaignEvent()         {}
func (SelectorUpdated) campaignEvent()  {}

// Observer is the engine's event sink: one method, one typed event.
// Implementations switch on the event types they care about and ignore
// the rest, so the interface never grows when a new event is added.
type Observer interface {
	Event(ev Event)
}

// Progress is an Observer printing a live line every Every committed
// iterations — the -progress flag of cmd/classfuzz.
type Progress struct {
	W     io.Writer
	Total int // campaign budget, for the x/N prefix
	Every int // commit interval between lines (≤0 → Total/20)

	committed, generated, accepted, hits int
}

// NewProgress builds a progress printer over w.
func NewProgress(w io.Writer, total, every int) *Progress {
	if every <= 0 {
		every = total / 20
		if every == 0 {
			every = 1
		}
	}
	return &Progress{W: w, Total: total, Every: every}
}

// Event implements Observer, emitting the periodic line on each
// committed iteration.
func (p *Progress) Event(ev Event) {
	switch e := ev.(type) {
	case Mutated:
		if e.Applied {
			p.generated++
		}
	case Executed:
		if e.Skipped {
			p.hits++
		}
	case Accepted:
		p.accepted++
	case SelectorUpdated:
		p.committed++
		if p.committed%p.Every == 0 || p.committed == p.Total {
			fmt.Fprintf(p.W, "[campaign] %d/%d committed: %d generated, %d accepted, %d prefilter hits\n",
				p.committed, p.Total, p.generated, p.accepted, p.hits)
		}
	}
}

// The engine emits events through this nil-tolerant shim.
type obs struct{ o Observer }

func (s obs) emit(ev Event) {
	if s.o != nil {
		s.o.Event(ev)
	}
}
