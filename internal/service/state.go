package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/seedsel"
)

// On-disk layout under Config.DataDir:
//
//	state.json              — State: config echo, corpus order, shard
//	                          epoch frontiers, discrepancy frontier
//	discrepancies.jsonl     — the discrepancy log, one compact JSON
//	                          Discrepancy per line, IDs 0, 1, 2, ...
//	corpus/subNNNNN.class   — submitted seed classfiles, arrival order
//
// The epoch is the unit of durability. An epoch that is stopped (drain)
// or killed is never folded and its shard's frontier does not move, so
// a restart runs it again from iteration 0, under the same derived
// seed, over the corpus as of the restart; since an epoch is a pure
// function of its seed and corpus, nothing of a running epoch needs to
// be saved. Verify memos live in memory only and start cold after a
// restart; results never depend on them. A memo.json or a
// checkpoints/ directory left by an older build is never read.
//
// Write ordering is the consistency argument: a corpus file and the
// state.json that names it are persisted BEFORE the seed becomes
// visible to shards, so no epoch ever folds over a seed the disk does
// not hold. state.json is rewritten after every fold (shard epoch
// frontier advance), every accepted submission and every POST
// /api/checkpoint, always to a temp name in the same directory renamed
// into place, so a kill -9 at any instant leaves either the old or the
// new version, never a torn one.
//
// The journal is the one file written in place: a fold appends its new
// lines (one write) and only then rewrites state.json with the advanced
// next_discrepancy. state.json's frontier therefore never names a line
// the journal does not hold. A kill between the two leaves lines at or
// past the frontier, or a torn final line; the next Start drops both
// and truncates the file to the prefix below the frontier, and the
// epoch whose fold was cut runs and folds again.
//
// Like every file here, the journal survives a killed process, not a
// lost machine: nothing is fsynced on the fold path, where a flush
// would hold the lock for as long as the disk takes. Stop fsyncs the
// journal once before closing it.

// StateVersion is state.json's format version. Version 1 carried the
// discrepancy log inline; version 2 keeps it in discrepancies.jsonl.
const StateVersion = 2

// State is the daemon's persistent root: enough to validate that a
// restart's configuration matches the data directory, rebuild the
// corpus in arrival order, and know each shard's epoch frontier.
type State struct {
	Version    int    `json:"version"`
	Algorithm  string `json:"algorithm"`
	Criterion  int    `json:"criterion"`
	Seed       int64  `json:"seed"`
	SeedCount  int    `json:"seed_count"`
	Iterations int    `json:"iterations"`
	Shards     int    `json:"shards"`
	// SeedStrategy is the seed-selection policy the data dir was built
	// under (empty in pre-strategy states, meaning "uniform").
	SeedStrategy string `json:"seed_strategy,omitempty"`
	// Submitted lists corpus file names in arrival order; position is
	// identity (submittedName).
	Submitted []string `json:"submitted"`
	// ShardEpochs[i] is shard i's next epoch to run — every epoch
	// below it has been folded into the session.
	ShardEpochs []int `json:"shard_epochs"`
	// NextDiscrepancy is the next discrepancy ID to assign: the
	// journal's committed length.
	NextDiscrepancy int `json:"next_discrepancy"`
}

// Discrepancy is one discrepancy-triggering classfile found by a shard
// epoch. IDs are assigned in fold-arrival order (monotonic within a
// daemon lifetime, persisted across restarts); the (Shard, Epoch,
// Class) triple is the deterministic identity.
type Discrepancy struct {
	ID          int      `json:"id"`
	Shard       int      `json:"shard"`
	Epoch       int      `json:"epoch"`
	Iteration   int      `json:"iteration"`
	Class       string   `json:"class"`
	Fingerprint uint64   `json:"fingerprint"`
	Vector      string   `json:"vector"`
	Outcomes    []string `json:"outcomes"`
	// Cluster is the seed cluster the triggering class's lineage roots
	// in (-1 when no scheduler is active, e.g. the uniform strategy).
	Cluster int `json:"cluster"`
}

// writeJSONAtomic marshals v and renames it into place. The temp file
// lives in the target's directory so the rename cannot cross devices.
func writeJSONAtomic(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(blob, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readJSON loads path into v; a missing file returns os.ErrNotExist.
func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

func (m *Manager) statePath() string   { return filepath.Join(m.cfg.DataDir, "state.json") }
func (m *Manager) journalPath() string { return filepath.Join(m.cfg.DataDir, "discrepancies.jsonl") }
func (m *Manager) corpusDir() string   { return filepath.Join(m.cfg.DataDir, "corpus") }

// submittedName is the corpus file name of the i-th submitted seed.
func submittedName(i int) string { return fmt.Sprintf("sub%05d.class", i) }

// stateLocked builds the current State. Caller holds m.mu.
func (m *Manager) stateLocked() *State {
	st := &State{
		Version:         StateVersion,
		Algorithm:       string(m.cfg.Algorithm),
		Criterion:       int(m.cfg.Criterion),
		Seed:            m.cfg.Seed,
		SeedCount:       m.cfg.SeedCount,
		Iterations:      m.cfg.Iterations,
		Shards:          m.cfg.Shards,
		SeedStrategy:    string(m.strategy),
		ShardEpochs:     append([]int(nil), m.shardEpochs...),
		NextDiscrepancy: len(m.discs),
	}
	for i := range m.submitted {
		st.Submitted = append(st.Submitted, submittedName(i))
	}
	return st
}

// persistLocked makes the in-memory state durable: it appends the
// discrepancies the journal does not hold yet (one write), then
// rewrites state.json. A failed append skips the state write, so
// state.json's frontier never runs past the journal, and the next
// persist writes the same lines again at the same offset. Caller holds
// m.mu.
func (m *Manager) persistLocked() error {
	if m.journaled < len(m.discs) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, d := range m.discs[m.journaled:] {
			if err := enc.Encode(d); err != nil {
				return fmt.Errorf("journal encode: %w", err)
			}
		}
		if _, err := m.journal.WriteAt(buf.Bytes(), m.journalSize); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		m.journalSize += int64(buf.Len())
		m.journaled = len(m.discs)
	}
	if err := writeJSONAtomic(m.statePath(), m.stateLocked()); err != nil {
		return fmt.Errorf("state write: %w", err)
	}
	return nil
}

// readJournal decodes the first frontier entries of the journal data.
// It returns them with the byte length of the lines they occupy; what
// follows — lines at or past the frontier, a torn final line — is
// never decoded and is the caller's to truncate. It fails on a line
// below the frontier that will not decode, on an ID that is not its
// line's index, and on a journal with fewer than frontier complete
// lines. Nothing is sized from frontier, so allocation stays in
// proportion to data.
func readJournal(data []byte, frontier int) ([]Discrepancy, int, error) {
	if frontier < 0 {
		return nil, 0, fmt.Errorf("service: state.json names a negative discrepancy frontier %d", frontier)
	}
	var discs []Discrepancy
	keep := 0
	for len(discs) < frontier {
		n := bytes.IndexByte(data[keep:], '\n')
		if n < 0 {
			break // no complete line left: a torn final line is dropped
		}
		var d Discrepancy
		if err := json.Unmarshal(data[keep:keep+n], &d); err != nil {
			return nil, 0, fmt.Errorf("service: journal line %d: %w", len(discs), err)
		}
		if d.ID != len(discs) {
			return nil, 0, fmt.Errorf("service: journal line %d holds discrepancy ID %d (IDs must run contiguously from 0)", len(discs), d.ID)
		}
		discs = append(discs, d)
		keep += n + 1
	}
	if len(discs) < frontier {
		return nil, 0, fmt.Errorf("service: journal holds %d complete entries, state.json names %d", len(discs), frontier)
	}
	return discs, keep, nil
}

// loadJournal reads the journal up to frontier, truncates the file to
// the prefix it kept and leaves it open for the folds' appends.
func (m *Manager) loadJournal(frontier int) error {
	data, err := os.ReadFile(m.journalPath())
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	discs, keep, err := readJournal(data, frontier)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(m.journalPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if len(data) > keep {
		m.logf("journal: dropped %d bytes past discrepancy %d (a fold cut short)", len(data)-keep, frontier)
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return fmt.Errorf("service: journal truncate: %w", err)
		}
	}
	m.journal, m.journalSize = f, int64(keep)
	m.discs, m.journaled = discs, len(discs)
	m.tel.Gauge(MetricDiscrepancies).Set(int64(len(discs)))
	return nil
}

// validateState checks that a loaded state matches the manager's
// configuration; restarting on a data directory under a different campaign
// shape would silently fork every determinism guarantee, so it fails.
func (m *Manager) validateState(st *State) error {
	fail := func(field string, disk, cfg any) error {
		return fmt.Errorf("service: data dir %s mismatch on %s: disk %v, config %v",
			m.cfg.DataDir, field, disk, cfg)
	}
	if st.Version != StateVersion {
		return fmt.Errorf("service: state version %d, this build reads %d", st.Version, StateVersion)
	}
	if st.Algorithm != string(m.cfg.Algorithm) {
		return fail("algorithm", st.Algorithm, m.cfg.Algorithm)
	}
	if st.Criterion != int(m.cfg.Criterion) {
		return fail("criterion", st.Criterion, m.cfg.Criterion)
	}
	if st.Seed != m.cfg.Seed {
		return fail("seed", st.Seed, m.cfg.Seed)
	}
	if st.SeedCount != m.cfg.SeedCount {
		return fail("seed_count", st.SeedCount, m.cfg.SeedCount)
	}
	if st.Iterations != m.cfg.Iterations {
		return fail("iterations", st.Iterations, m.cfg.Iterations)
	}
	if st.Shards != m.cfg.Shards {
		return fail("shards", st.Shards, m.cfg.Shards)
	}
	if len(st.ShardEpochs) != m.cfg.Shards {
		return fmt.Errorf("service: state has %d shard frontiers for %d shards", len(st.ShardEpochs), m.cfg.Shards)
	}
	for i, e := range st.ShardEpochs {
		if e < 0 {
			return fmt.Errorf("service: state names a negative epoch frontier %d for shard %d", e, i)
		}
	}
	// Position is identity: the i-th submission is always
	// submittedName(i). Any other name could reach outside corpus/ or
	// let the next intake overwrite a file an earlier position names.
	for i, name := range st.Submitted {
		if want := submittedName(i); name != want {
			return fmt.Errorf("service: state names corpus file %q at position %d, want %q", name, i, want)
		}
	}
	diskStrategy := st.SeedStrategy
	if diskStrategy == "" {
		diskStrategy = string(seedsel.Uniform) // pre-strategy states were uniform
	}
	if diskStrategy != string(m.strategy) {
		return fail("seed_strategy", diskStrategy, m.strategy)
	}
	return nil
}
