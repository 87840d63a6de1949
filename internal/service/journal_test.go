package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// copyDataDir copies a stopped daemon's data directory (state.json,
// journal, corpus) into a fresh temp directory.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func appendFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// journalLines encodes ds as journal lines.
func journalLines(t *testing.T, ds ...Discrepancy) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkJournal asserts the journal file holds exactly ds, contiguous
// from ID 0, with nothing after them.
func checkJournal(t *testing.T, dataDir string, ds []Discrepancy) {
	t.Helper()
	data := mustRead(t, filepath.Join(dataDir, "discrepancies.jsonl"))
	got, keep, err := readJournal(data, len(ds))
	if err != nil {
		t.Fatalf("journal on disk: %v", err)
	}
	if keep != len(data) {
		t.Fatalf("journal holds %d bytes past its %d entries", len(data)-keep, len(ds))
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatal("journal on disk differs from the daemon's discrepancy log")
	}
}

// TestJournalRecovery: Start keeps the journal prefix below state.json's
// frontier — dropping a torn final line and lines a cut-short fold left
// past it, and truncating the file so later appends stay contiguous —
// and refuses a journal whose prefix has a gap or is too short.
func TestJournalRecovery(t *testing.T) {
	ref := testConfig(t, 1)
	_, rm := runToCompletion(t, ref)
	want := rm.Discrepancies(0)
	if len(want) < 2 {
		t.Fatalf("reference run found %d discrepancies; the cases need at least 2", len(want))
	}
	refJournal := mustRead(t, filepath.Join(ref.DataDir, "discrepancies.jsonl"))

	// restartOn copies the reference data directory, lets damage alter
	// the copy's journal and returns the config that restarts on it.
	restartOn := func(t *testing.T, damage func(journal string)) Config {
		cfg := ref
		cfg.DataDir = copyDataDir(t, ref.DataDir)
		damage(filepath.Join(cfg.DataDir, "discrepancies.jsonl"))
		return cfg
	}
	past := want[0]
	past.ID = len(want)

	t.Run("torn final line", func(t *testing.T) {
		cfg := restartOn(t, func(journal string) {
			line := journalLines(t, past)
			appendFile(t, journal, line[:len(line)/2])
		})
		_, m := runToCompletion(t, cfg)
		if !reflect.DeepEqual(m.Discrepancies(0), want) {
			t.Fatal("restart's discrepancy log differs from the log before the torn line")
		}
		if got := mustRead(t, filepath.Join(cfg.DataDir, "discrepancies.jsonl")); !bytes.Equal(got, refJournal) {
			t.Fatalf("journal not truncated to its committed prefix: %d bytes, want %d", len(got), len(refJournal))
		}
	})

	t.Run("lines past the frontier", func(t *testing.T) {
		next := past
		next.ID++
		cfg := restartOn(t, func(journal string) {
			appendFile(t, journal, journalLines(t, past, next))
		})
		cfg.Epochs = 3 // one more epoch per shard appends after the kept prefix
		_, m := runToCompletion(t, cfg)
		got := m.Discrepancies(0)
		if len(got) <= len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("restart kept %d discrepancies, want the %d committed plus the new epochs'", len(got), len(want))
		}
		for _, d := range got[len(want):] {
			if d.Epoch != 2 {
				t.Fatalf("discrepancy %d from epoch %d survived past the frontier", d.ID, d.Epoch)
			}
		}
		checkJournal(t, cfg.DataDir, got)
	})

	t.Run("crash after append before state write", func(t *testing.T) {
		// A one-epoch run's state.json beside the two-epoch journal is
		// what a kill between the second epochs' journal appends and
		// their state writes leaves behind.
		cfg := ref
		cfg.DataDir = t.TempDir()
		cfg.Epochs = 1
		runToCompletion(t, cfg)
		statePath := filepath.Join(cfg.DataDir, "state.json")
		early := mustRead(t, statePath)
		cfg.Epochs = 2
		runToCompletion(t, cfg)
		if err := os.WriteFile(statePath, early, 0o644); err != nil {
			t.Fatal(err)
		}
		_, m := runToCompletion(t, cfg)
		got := m.Discrepancies(0)
		if !reflect.DeepEqual(discSet(got), discSet(want)) {
			t.Fatal("refolded daemon's discrepancy set diverges from the uninterrupted run")
		}
		checkJournal(t, cfg.DataDir, got)
	})

	for _, tc := range []struct {
		name, damage string
		write        func(journal string)
	}{
		{"ID gap", "contiguously", func(journal string) {
			gap := append([]Discrepancy(nil), want...)
			gap[1].ID = 2
			if err := os.WriteFile(journal, journalLines(t, gap...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"journal shorter than frontier", "journal holds 1 complete", func(journal string) {
			if err := os.WriteFile(journal, journalLines(t, want[0]), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"undecodable line", "journal line 1", func(journal string) {
			lines := journalLines(t, want...)
			at := bytes.IndexByte(lines, '\n') + 1
			lines[at] = '#'
			if err := os.WriteFile(journal, lines, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := restartOn(t, tc.write)
			before := mustRead(t, filepath.Join(cfg.DataDir, "discrepancies.jsonl"))
			m := New(cfg)
			err := m.Start()
			if err == nil {
				m.Stop(context.Background())
				t.Fatal("Start accepted a damaged journal")
			}
			if !strings.Contains(err.Error(), tc.damage) {
				t.Fatalf("Start error %q does not name the damage (%q)", err, tc.damage)
			}
			if after := mustRead(t, filepath.Join(cfg.DataDir, "discrepancies.jsonl")); !bytes.Equal(after, before) {
				t.Fatal("a refused Start rewrote the journal")
			}
		})
	}
}

// TestDiscrepancyPagingConsistent: a /api/discrepancies page and its
// next cursor come from one view of the log, whatever folds land in
// between, so a client following next sees every ID exactly once.
func TestDiscrepancyPagingConsistent(t *testing.T) {
	const requests, perRequest = 10000, 4
	m := New(testConfig(t, 1)) // the handler needs only the log, not a running daemon
	h := m.handler()

	// The folder commits up to perRequest entries per request the client
	// has begun, so its commits contend for the lock while handlers run
	// and the log stays bounded.
	var begun atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < requests*perRequest; i++ {
			for int64(i) >= perRequest*begun.Load() {
				runtime.Gosched()
			}
			m.mu.Lock()
			m.commitLocked([]Discrepancy{{Shard: i % 2, Epoch: i}})
			m.mu.Unlock()
		}
	}()
	defer wg.Wait()
	defer begun.Store(requests) // release the folder on every exit

	since := 0
	for r := 0; r < requests; r++ {
		begun.Add(1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/api/discrepancies?since=%d", since), nil))
		var page struct {
			Next          int           `json:"next"`
			Discrepancies []Discrepancy `json:"discrepancies"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("page from %d: %v", since, err)
		}
		if page.Next != since+len(page.Discrepancies) {
			t.Fatalf("page from %d holds %d entries but next is %d", since, len(page.Discrepancies), page.Next)
		}
		for i, d := range page.Discrepancies {
			if d.ID != since+i {
				t.Fatalf("entry %d of the page from %d has ID %d", i, since, d.ID)
			}
		}
		since = page.Next
	}
}

// TestLockHistograms: the fold and intake critical sections of the
// manager lock report their wait and hold times, live in /metrics.json.
func TestLockHistograms(t *testing.T) {
	_, m := runToCompletion(t, testConfig(t, 1))
	snap := m.Session().Telemetry.Snapshot()
	for _, name := range []string{MetricLockWait, MetricLockHold} {
		if snap.Hist(name).Count == 0 {
			t.Fatalf("%s is empty after a completed run", name)
		}
	}
	blob, err := m.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(MetricLockHold)) || !bytes.Contains(blob, []byte(MetricLockWait)) {
		t.Fatal("/metrics.json lacks the lock histograms")
	}
}

// FuzzJournalLoad: the journal reader never panics and allocates in
// proportion to its input whatever the frontier; when it accepts, it
// returns frontier entries with ID == index, occupying a prefix of
// whole lines which, read back alone, gives the same entries.
// testdata/fuzz/FuzzJournalLoad holds valid, torn, gap, garbage and
// out-of-range-frontier seeds.
func FuzzJournalLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, frontier int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		discs, keep, err := readJournal(data, frontier)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+512*uint64(len(data)) {
			t.Fatalf("read of %d bytes (frontier %d) allocated %d bytes", len(data), frontier, alloc)
		}
		if err != nil {
			return
		}
		if len(discs) != frontier || keep > len(data) || (keep > 0 && data[keep-1] != '\n') {
			t.Fatalf("accepted %d entries in %d bytes of %d for frontier %d", len(discs), keep, len(data), frontier)
		}
		for i, d := range discs {
			if d.ID != i {
				t.Fatalf("entry %d has ID %d", i, d.ID)
			}
		}
		again, keep2, err := readJournal(data[:keep], frontier)
		if err != nil || keep2 != keep || !reflect.DeepEqual(again, discs) {
			t.Fatalf("kept prefix does not read back alone: %v", err)
		}
	})
}
