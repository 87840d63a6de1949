package campaign

import (
	"fmt"
	"io"

	"repro/internal/coverage"
)

// Event is one engine occurrence, delivered to the Observer as a typed
// struct. All events fire from the sequential draw/commit stages —
// never from workers — so for a fixed campaign configuration the event
// sequence is identical at any worker count. Observers driven by a
// single engine therefore need no locking; an observer shared across
// concurrent campaigns must synchronise itself.
//
// The concrete event types are IterationStarted, Mutated, Executed,
// PrefilterHit, Accepted and SelectorUpdated.
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

// PrefilterHit fires at commit when the static prefilter's cache
// avoided a reference-VM execution.
type PrefilterHit struct {
	Iter int
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
func (PrefilterHit) campaignEvent()     {}
func (Accepted) campaignEvent()         {}
func (SelectorUpdated) campaignEvent()  {}

// Observer is the engine's event sink: one method, one typed event.
// Implementations switch on the event types they care about and ignore
// the rest, so the interface never grows when a new event is added.
type Observer interface {
	Event(ev Event)
}

// Counters is an Observer tallying every event class; cmd/report and
// the cmd progress lines read campaigns off it.
type Counters struct {
	Iterations    int // draws performed
	Applied       int // mutants that produced a classfile
	Failed        int // inapplicable mutators / unlowerable mutants
	Executions    int // reference-VM runs
	PrefilterHits int // executions the trace cache absorbed
	Accepts       int // mutants accepted into TestClasses
	Committed     int // iterations fully committed
}

// Event implements Observer.
func (c *Counters) Event(ev Event) {
	switch e := ev.(type) {
	case IterationStarted:
		c.Iterations++
	case Mutated:
		if e.Applied {
			c.Applied++
		} else {
			c.Failed++
		}
	case Executed:
		if !e.Skipped {
			c.Executions++
		}
	case PrefilterHit:
		c.PrefilterHits++
	case Accepted:
		c.Accepts++
	case SelectorUpdated:
		c.Committed++
	}
}

// String renders the tallies on one line.
func (c *Counters) String() string {
	return fmt.Sprintf("iterations=%d applied=%d failed=%d executions=%d prefilter-hits=%d accepted=%d",
		c.Iterations, c.Applied, c.Failed, c.Executions, c.PrefilterHits, c.Accepts)
}

// Progress is an Observer printing a live line every Every committed
// iterations — the -progress flag of cmd/classfuzz and
// cmd/experiments.
type Progress struct {
	W     io.Writer
	Total int // campaign budget, for the x/N prefix
	Every int // commit interval between lines (≤0 → Total/20)
	Counters
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
	p.Counters.Event(ev)
	if _, ok := ev.(SelectorUpdated); !ok {
		return
	}
	if p.Committed%p.Every == 0 || p.Committed == p.Total {
		fmt.Fprintf(p.W, "[campaign] %d/%d committed: %d generated, %d accepted, %d prefilter hits\n",
			p.Committed, p.Total, p.Applied, p.Accepts, p.PrefilterHits)
	}
}

// Multi fans events out to several observers in order.
type Multi []Observer

// Event implements Observer.
func (m Multi) Event(ev Event) {
	for _, o := range m {
		o.Event(ev)
	}
}

// The engine emits events through this nil-tolerant shim.
type obs struct{ o Observer }

func (s obs) emit(ev Event) {
	if s.o != nil {
		s.o.Event(ev)
	}
}
