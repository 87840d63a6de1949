package analysis

import "repro/internal/telemetry"

// VerdictCounters tallies a stream of binary static verdicts — oracle
// predictions, prefilter doom checks — into a pair of named telemetry
// counters. The zero value is inert (nil handles make Observe a
// no-op), so attaching can be gated on a registry being present.
type VerdictCounters struct {
	Accept *telemetry.Counter
	Reject *telemetry.Counter
}

// NewVerdictCounters interns "<prefix>.accept" and "<prefix>.reject"
// in reg. A nil registry yields the inert zero value.
func NewVerdictCounters(reg *telemetry.Registry, prefix string) VerdictCounters {
	return VerdictCounters{
		Accept: reg.Counter(prefix + ".accept"),
		Reject: reg.Counter(prefix + ".reject"),
	}
}

// Observe counts one verdict.
func (c VerdictCounters) Observe(rejected bool) {
	if rejected {
		c.Reject.Inc()
	} else {
		c.Accept.Inc()
	}
}

// DataflowCounters tallies the dataflow verify band's per-class claims
// under the canonical analysis.dataflow.* names: Definite is a
// definite claim that loading and linking (§4.10 verification
// included) succeed, Reject a definite claim they do not. Like
// VerdictCounters, the zero value is inert.
type DataflowCounters struct {
	Definite *telemetry.Counter // analysis.dataflow.definite
	Reject   *telemetry.Counter // analysis.dataflow.reject
}

// NewDataflowCounters interns the analysis.dataflow.* counters in reg.
// A nil registry yields the inert zero value.
func NewDataflowCounters(reg *telemetry.Registry) DataflowCounters {
	return DataflowCounters{
		Definite: reg.Counter("analysis.dataflow.definite"),
		Reject:   reg.Counter("analysis.dataflow.reject"),
	}
}
