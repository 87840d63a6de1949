package campaign

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// benchConfig mirrors experiments.DefaultScale: 60 seeds, 400
// iterations of classfuzz[stbr] with the static prefilter on — the
// workload whose wall clock the worker pool is meant to cut.
func benchConfig(workers int) Config {
	return Config{
		Algorithm:       Classfuzz,
		Criterion:       coverage.STBR,
		Source:          FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(60, 1))),
		Iterations:      400,
		Rand:            1,
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
		Workers:         workers,
	}
}

func benchCampaign(b *testing.B, workers int) {
	benchCampaignCfg(b, benchConfig(workers))
}

func benchCampaignCfg(b *testing.B, cfg Config) {
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		perIter := b.Elapsed().Seconds() / float64(b.N) / float64(cfg.Iterations)
		b.ReportMetric(1/perIter, "iters/sec")
		if n := len(last.Test); n > 0 {
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/float64(n)*1e6, "µs/test")
		}
	}
}

func BenchmarkCampaign1Worker(b *testing.B)  { benchCampaign(b, 1) }
func BenchmarkCampaign4Workers(b *testing.B) { benchCampaign(b, 4) }
func BenchmarkCampaign8Workers(b *testing.B) { benchCampaign(b, 8) }

// BenchmarkCampaignWarmLineage measures the steady state the verify
// memo targets: the same campaign re-run with a memo carried across
// runs (a daemon shard re-fuzzing a lineage epoch after epoch), so
// every untouched method of every mutant generation hits the memo.
// Results stay bit-identical to the cold run — the memo is
// observe-equivalent — only the wall clock moves. The bench-compare CI
// gate watches this next to the cold benchmarks.
func BenchmarkCampaignWarmLineage(b *testing.B) {
	cfg := benchConfig(1)
	cfg.VerifyMemo = jvm.NewVerifyMemo()
	// Warm the memo with one full campaign before timing.
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	benchCampaignCfg(b, cfg)
}

// BenchmarkCampaignYieldSched is the scheduler hot path: the same
// campaign drawn through a yield-weighted seedsel scheduler instead of
// the flat adapter, so every draw walks the cluster weights and every
// commit updates them. The bench-compare CI gate watches this next to
// the flat-draw benchmarks; scheduler construction (per-seed baseline
// execution) happens inside the timed loop because a stateful source
// serves exactly one run.
func BenchmarkCampaignYieldSched(b *testing.B) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(60, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: jvm.HotSpot9()})
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchConfig(1)
		cfg.Source = sched
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaign1WorkerTelemetry is the instrumented twin of
// BenchmarkCampaign1Worker: a registry attached, so every stage span
// and counter fires. The bench-compare CI gate holds its ns/op within
// the same 10% window, and the acceptance budget for telemetry
// overhead (telemetry-on vs telemetry-off) is ≤2%.
func BenchmarkCampaign1WorkerTelemetry(b *testing.B) {
	cfg := benchConfig(1)
	cfg.Telemetry = telemetry.New()
	benchCampaignCfg(b, cfg)
}

// BenchmarkLineageEpoch is one epoch of a daemon shard's lineage (the
// bench's lineage-epochs shape): a fresh yield scheduler over the
// corpus, then a 400-iteration campaign at two workers with a verify
// memo carried warm across epochs. The scheduler's seed pass is the
// engine's too, so each loop runs the seeds once. The bench-compare CI
// gate watches this per-epoch fixed cost.
func BenchmarkLineageEpoch(b *testing.B) {
	cfg := benchConfig(2)
	seeds := cfg.Source.Corpus()
	cfg.VerifyMemo = jvm.NewVerifyMemo()
	epoch := func() {
		sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: cfg.RefSpec})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Source = sched
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	epoch() // warm the memo, as every epoch after a lineage's first finds it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}
