package campaign

import (
	"time"

	"repro/internal/jimple"
)

// runBytefuzz implements the binary blind fuzzer: a seed classfile's
// serialized bytes with a single random one-byte change per iteration.
// Every mutant is kept (there is no acceptance discipline to apply —
// the fuzzer sees only bytes), matching how the paper characterises the
// Sirer & Bershad / Dex-fuzzing style of VM testing. Byte mutants are
// recycled into the pool like Algorithm 1 recycles classes, so changes
// accumulate over a campaign.
//
// Like the staged engine, each iteration draws the pool index from its
// own drawRNG stream and the byte flip from its own DeriveRNG stream;
// there is no reference-VM work to parallelise, so the loop stays
// sequential.
func runBytefuzz(cfg Config) (*Result, error) {
	start := time.Now() //detlint:ok Result.Elapsed is reporting-only

	// Serialise the seed corpus once.
	var pool [][]byte
	for _, s := range cfg.seedCorpus() {
		f, err := jimple.Lower(s)
		if err != nil {
			continue
		}
		data, err := f.Bytes()
		if err != nil {
			continue
		}
		pool = append(pool, data)
	}
	if len(pool) == 0 {
		return nil, errNoSerializableSeeds
	}

	o := obs{cfg.Observer}
	tel := newEngineTel(nonNilRegistry(cfg.Telemetry), false)
	res := &Result{
		Algorithm:  cfg.Algorithm,
		Criterion:  cfg.Criterion,
		Iterations: cfg.Iterations,
		Workers:    1,
		Lookahead:  DefaultLookahead,
	}
	for it := 0; it < cfg.Iterations; it++ {
		idx := drawRNG(cfg.Rand, it).Intn(len(pool))
		tel.iterations.Inc()
		o.emit(IterationStarted{Iter: it, PoolIndex: idx, MutatorID: -1})
		rng := DeriveRNG(cfg.Rand, it)
		mutant := append([]byte(nil), pool[idx]...)
		mutant[rng.Intn(len(mutant))] = byte(rng.Intn(256))
		gc := &GenClass{
			Iter:      it,
			Name:      nameOf(it),
			MutatorID: -1, // no structured mutator
			Data:      mutant,
			Accepted:  true,
		}
		tel.generated.Inc()
		o.emit(Mutated{Iter: it, MutatorID: -1, Applied: true})
		res.Gen = append(res.Gen, gc)
		res.Test = append(res.Test, gc)
		if !cfg.NoSeedRecycling {
			pool = append(pool, mutant)
			tel.poolSize.Set(int64(len(pool)))
		}
		tel.accepts.Inc()
		tel.committed.Inc()
		o.emit(Accepted{Iter: it, Name: gc.Name, Stats: gc.Stats})
		o.emit(SelectorUpdated{Iter: it, MutatorID: -1, Success: true})
	}
	res.Elapsed = time.Since(start)    //detlint:ok Result.Elapsed is reporting-only
	res.MutatorStats = []MutatorStat{} // bytefuzz never selects mutators
	return res, nil
}

func nameOf(it int) string {
	return "B" + itoa(1430000000+it)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// errNoSerializableSeeds is returned when no seed lowers to bytes.
var errNoSerializableSeeds = errString("campaign: no serializable seeds for bytefuzz")

type errString string

func (e errString) Error() string { return string(e) }
