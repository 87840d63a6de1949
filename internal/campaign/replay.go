package campaign

import (
	"bytes"
	"fmt"

	"repro/internal/jimple"
	"repro/internal/mutation"
)

// ReplayInfo is the outcome of reproducing a single campaign iteration
// in isolation.
type ReplayInfo struct {
	// Record is the iteration's draw-log entry.
	Record DrawRecord
	// Class is the rebuilt mutant model; Data its classfile bytes.
	Class *jimple.Class
	Data  []byte
	// Verified reports that Data is byte-identical to what the campaign
	// produced at this iteration (checked when Replay re-ran the prefix;
	// Rebuild alone leaves it false).
	Verified bool
}

// RootSeed walks iteration iter's lineage through the draw log to the
// original corpus seed it descends from, returning that seed's pool
// index (-1 if iter or any ancestor link is outside the log).
func RootSeed(draws []DrawRecord, iter int) int {
	for {
		if iter < 0 || iter >= len(draws) {
			return -1
		}
		rec := draws[iter]
		if rec.Parent < 0 {
			return rec.PoolIndex
		}
		iter = rec.Parent
	}
}

// Rebuild reconstructs iteration iter's mutant from the campaign seed
// and the draw log alone, with no reference-VM execution. The draw log
// pins the lineage: Rebuild walks it up to the original seed the
// iteration descends from, then regenerates each generation forward.
func Rebuild(cfg Config, draws []DrawRecord, iter int) (*ReplayInfo, error) {
	var lineage []DrawRecord
	for it := iter; ; {
		if it < 0 || it >= len(draws) {
			return nil, fmt.Errorf("campaign: replay iteration %d outside draw log (0..%d)", it, len(draws)-1)
		}
		rec := draws[it]
		if rec.Iter != it {
			return nil, fmt.Errorf("campaign: draw log record %d carries iter %d", it, rec.Iter)
		}
		if !rec.Generated {
			return nil, fmt.Errorf("campaign: iteration %d generated no classfile (mutator %d inapplicable or mutant unlowerable)", it, rec.MutatorID)
		}
		lineage = append(lineage, rec)
		if rec.Parent < 0 {
			break
		}
		if rec.Parent >= it {
			return nil, fmt.Errorf("campaign: draw log iteration %d descends from later iteration %d", it, rec.Parent)
		}
		it = rec.Parent
	}

	// Regenerate forward from the seed. Each generation's parent is the
	// one before it, and the mutator re-runs under DeriveRNG(seed, iter),
	// whose stream is independent of the draw stage, so each step
	// consumes exactly the random values the campaign's worker did; the
	// mutant is then finished and lowered as the worker did.
	seeds, muts := cfg.seedCorpus(), mutation.Registry()
	root := lineage[len(lineage)-1]
	if root.PoolIndex < 0 || root.PoolIndex >= len(seeds) {
		return nil, fmt.Errorf("campaign: iteration %d draws seed %d outside the corpus (%d seeds)", root.Iter, root.PoolIndex, len(seeds))
	}
	parent := seeds[root.PoolIndex]
	var info *ReplayInfo
	for k := len(lineage) - 1; k >= 0; k-- {
		rec := lineage[k]
		if rec.MutatorID < 0 || rec.MutatorID >= len(muts) {
			return nil, fmt.Errorf("campaign: iteration %d mutator id %d out of range", rec.Iter, rec.MutatorID)
		}
		mutant := parent.Clone()
		if !muts[rec.MutatorID].Apply(mutant, DeriveRNG(cfg.Rand, rec.Iter)) {
			return nil, fmt.Errorf("campaign: mutator %d no longer applies at iteration %d — the draw log diverges from this config or build", rec.MutatorID, rec.Iter)
		}
		finishMutant(mutant, rec.Iter)
		data, err := lower(mutant)
		if err != nil {
			return nil, fmt.Errorf("campaign: rebuilt mutant of iteration %d fails to lower: %w", rec.Iter, err)
		}
		info = &ReplayInfo{Record: rec, Class: mutant, Data: data}
		parent = mutant
	}
	return info, nil
}

// Replay reproduces iteration iter of the campaign cfg describes: it
// re-runs the campaign prefix up to and including iter to recover the
// draw log and the original bytes, rebuilds the mutant in isolation via
// Rebuild, and cross-checks the two byte-for-byte. Draw/mutate stream
// separation makes the rebuild independent of worker count and of the
// selector's rejection-loop behaviour.
func Replay(cfg Config, iter int) (*ReplayInfo, error) {
	if cfg.Algorithm == Bytefuzz {
		return nil, fmt.Errorf("campaign: replay is not supported for bytefuzz (its pool holds raw bytes, not models)")
	}
	if iter < 0 || iter >= cfg.Iterations {
		return nil, fmt.Errorf("campaign: replay iteration %d outside budget 0..%d", iter, cfg.Iterations-1)
	}
	prefix := cfg
	prefix.Iterations = iter + 1
	prefix.KeepGenBytes = true // keep the campaign's bytes for the cross-check
	prefix.Observer = nil
	res, err := Run(prefix)
	if err != nil {
		return nil, err
	}
	info, err := Rebuild(prefix, res.Draws, iter)
	if err != nil {
		return nil, err
	}
	for _, g := range res.Gen {
		if g.Iter == iter {
			info.Verified = bytes.Equal(info.Data, g.Data)
			if !info.Verified {
				return info, fmt.Errorf("campaign: replayed bytes of iteration %d differ from the campaign's", iter)
			}
			return info, nil
		}
	}
	return nil, fmt.Errorf("campaign: iteration %d missing from campaign prefix", iter)
}
