package main

import (
	"fmt"

	"repro/internal/experiments"
)

// referenceSeconds is the run length the full-scale loads are sized
// for: about ten seconds each on a 2-CPU x86-64 machine. -seconds S
// runs S/referenceSeconds of that work; the work is fixed by the flags,
// never by the clock.
const referenceSeconds = 10

// sizes fixes every workload's amount of work.
type sizes struct {
	// campaign-paper: one classfuzz[stbr] campaign.
	campaignSeeds, campaignIters int
	// lineage-epochs: lineages lineages, each lineageEpochs consecutive
	// yield-scheduled epochs over its own lineageSeeds-seed corpus.
	lineages, lineageSeeds, lineageEpochs, lineageIters int
	// paper-tables: sessions at tables scale, seeds s, s+1, ...
	tables   experiments.Scale
	sessions int
	// daemon-api
	daemon daemonSize
}

type daemonSize struct {
	// rounds daemons run one after another, each with its own seed and
	// data directory; each runs epochs epochs on every shard and is
	// sent submissions classfiles.
	rounds                                    int
	shards, epochs, iters, seeds, submissions int
	rate                                      float64 // requests per second
}

// sizesFor returns the loads of a scale. "full" scales linearly with
// seconds; "smoke" is a fixed sub-second load for tests.
func sizesFor(scale string, seconds int) (sizes, error) {
	switch scale {
	case "full":
		if seconds < 1 {
			return sizes{}, fmt.Errorf("-seconds must be at least 1")
		}
		per := func(n int) int { return max(1, n*seconds/referenceSeconds) }
		return sizes{
			campaignSeeds: 1216, campaignIters: per(250000),
			lineages: 3, lineageSeeds: 60, lineageEpochs: per(200), lineageIters: 400,
			tables: experiments.PaperScale(), sessions: per(3),
			daemon: daemonSize{
				rounds: per(6), shards: 2, epochs: 40, iters: 400, seeds: 60, submissions: 8,
				rate: 10,
			},
		}, nil
	case "smoke":
		return sizes{
			campaignSeeds: 40, campaignIters: 1500,
			lineages: 2, lineageSeeds: 20, lineageEpochs: 2, lineageIters: 150,
			tables:   experiments.Scale{SeedCount: 20, Iterations: 60, RandfuzzFactor: 2, CorpusCount: 40},
			sessions: 1,
			daemon: daemonSize{
				rounds: 1, shards: 2, epochs: 2, iters: 100, seeds: 20, submissions: 4,
				rate: 50,
			},
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown -scale %q (want full or smoke)", scale)
}
