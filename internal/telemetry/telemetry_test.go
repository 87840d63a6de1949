package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not interned: second lookup returned a new handle")
	}
	g := r.Gauge("b")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilTolerance(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(5)
	g.Add(5)
	h.Observe(5)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	StartSpan(nil).End()
	Span{}.End()
	r.Merge(New())
	r.MergeSnapshot(Snapshot{Counters: map[string]int64{"x": 1}})
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry Names = %v, want nil", names)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

// TestHistogramBuckets pins the power-of-two bucketing: bucket 0 holds
// v ≤ 0; bucket i holds 2^(i-1) ≤ v ≤ 2^i − 1.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		lo, hi int64
	}{
		{-5, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 4, 7},
		{7, 4, 7},
		{8, 8, 15},
		{1023, 512, 1023},
		{1024, 1024, 2047},
		{1 << 40, 1 << 40, 1<<41 - 1},
		{1<<63 - 1, 1 << 62, 1<<63 - 1},
	}
	for _, tc := range cases {
		h := &Histogram{}
		h.Observe(tc.v)
		s := h.snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Observe(%d): %d buckets populated, want 1", tc.v, len(s.Buckets))
		}
		b := s.Buckets[0]
		if b.Lo != tc.lo || b.Hi != tc.hi || b.Count != 1 {
			t.Errorf("Observe(%d) landed in [%d,%d]×%d, want [%d,%d]×1", tc.v, b.Lo, b.Hi, b.Count, tc.lo, tc.hi)
		}
		if tc.v > 0 && (tc.v < b.Lo || tc.v > b.Hi) {
			t.Errorf("Observe(%d): value outside its own bucket [%d,%d]", tc.v, b.Lo, b.Hi)
		}
		if s.Count != 1 || s.Sum != tc.v {
			t.Errorf("Observe(%d): count=%d sum=%d, want 1/%d", tc.v, s.Count, s.Sum, tc.v)
		}
	}
}

func TestHistogramSnapshotOrderAndStats(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1000, 1, 5, 5, 0, 1 << 20} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 || s.Sum != 1000+1+5+5+0+1<<20 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	var total int64
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Lo <= s.Buckets[i-1].Lo {
			t.Fatalf("buckets not ascending: %+v", s.Buckets)
		}
	}
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, s.Count)
	}
	if want := float64(s.Sum) / 6; s.Mean() != want {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
}

// TestMerge verifies Registry.Merge: counters and gauges add,
// histograms add bucketwise, and the merged registry's snapshot equals
// the metric-wise sum of the sources' snapshots.
func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("c.shared").Add(3)
	a.Counter("c.only_a").Add(1)
	a.Gauge("g").Set(10)
	b.Counter("c.shared").Add(4)
	b.Counter("c.only_b").Add(2)
	b.Gauge("g").Set(5)
	for _, v := range []int64{1, 100, 100} {
		a.Histogram("h").Observe(v)
	}
	for _, v := range []int64{100, 1 << 30} {
		b.Histogram("h").Observe(v)
	}

	m := New()
	m.Merge(a)
	m.Merge(b)
	s := m.Snapshot()

	if got := s.Counter("c.shared"); got != 7 {
		t.Errorf("shared counter = %d, want 7", got)
	}
	if s.Counter("c.only_a") != 1 || s.Counter("c.only_b") != 2 {
		t.Errorf("disjoint counters wrong: %v", s.Counters)
	}
	if got := s.Gauge("g"); got != 15 {
		t.Errorf("merged gauge = %d, want 15 (gauges sum across registries)", got)
	}
	h := s.Hist("h")
	if h.Count != 5 || h.Sum != 1+100+100+100+1<<30 {
		t.Errorf("merged hist count=%d sum=%d", h.Count, h.Sum)
	}
	wantBuckets := []Bucket{{1, 1, 1}, {64, 127, 3}, {1 << 30, 1<<31 - 1, 1}}
	if !reflect.DeepEqual(h.Buckets, wantBuckets) {
		t.Errorf("merged buckets = %+v, want %+v", h.Buckets, wantBuckets)
	}

	// Merge must be additive at the snapshot level too.
	if ms := MergeSnapshots(a.Snapshot(), b.Snapshot()); !reflect.DeepEqual(ms, s) {
		t.Errorf("MergeSnapshots disagrees with Registry.Merge:\n%+v\n%+v", ms, s)
	}

	// Self-merge and nil-merge are no-ops.
	before := a.Snapshot()
	a.Merge(a)
	a.Merge(nil)
	if after := a.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("self/nil merge changed the registry: %+v -> %+v", before, after)
	}
}

// TestConcurrentIncrements hammers one registry from varying worker
// counts (mirrors the engine matrix: 2, 4, GOMAXPROCS) and checks the
// totals are exact. Run under -race in CI.
func TestConcurrentIncrements(t *testing.T) {
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := New()
			const perWorker = 5000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Half the handles are pre-interned per goroutine,
					// half looked up hot, so the map path races with
					// the atomic path the way real wiring does.
					c := r.Counter("c")
					h := r.Histogram("h")
					for i := 0; i < perWorker; i++ {
						c.Inc()
						r.Counter("c2").Add(2)
						r.Gauge("g").Add(1)
						h.Observe(int64(i%1024 + 1))
						if i%64 == 0 {
							_ = r.Snapshot() // concurrent reader
						}
					}
				}(w)
			}
			wg.Wait()
			s := r.Snapshot()
			n := int64(workers * perWorker)
			if got := s.Counter("c"); got != n {
				t.Errorf("c = %d, want %d", got, n)
			}
			if got := s.Counter("c2"); got != 2*n {
				t.Errorf("c2 = %d, want %d", got, 2*n)
			}
			if got := s.Gauge("g"); got != n {
				t.Errorf("g = %d, want %d", got, n)
			}
			if got := s.Hist("h").Count; got != n {
				t.Errorf("h count = %d, want %d", got, n)
			}
		})
	}
}

// TestHotPathZeroAlloc asserts the coverage-recorder contract: once a
// handle is interned, increments and observations allocate nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("hot-path metric ops allocate %v bytes/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp := StartSpan(h)
		sp.End()
	}); n != 0 {
		t.Fatalf("span start/end allocates %v bytes/op, want 0", n)
	}
}

func TestSpanRecordsElapsed(t *testing.T) {
	r := New()
	h := r.Histogram("stage_ns")
	sp := StartSpan(h)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span did not record: count=%d", h.Count())
	}
	if h.Sum() < int64(time.Millisecond) {
		t.Fatalf("span recorded %dns, want ≥1ms", h.Sum())
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := New()
	r.Counter("c").Add(10)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(5)
	before := r.Snapshot()

	r.Counter("c").Add(7)
	r.Counter("new").Inc()
	r.Gauge("g").Set(4)
	r.Histogram("h").Observe(5)
	r.Histogram("h").Observe(4000)
	after := r.Snapshot()

	d := after.Diff(before)
	if d.Counter("c") != 7 || d.Counter("new") != 1 {
		t.Errorf("counter diff wrong: %v", d.Counters)
	}
	if d.Gauge("g") != 4 {
		t.Errorf("gauge diff = %d, want current value 4", d.Gauge("g"))
	}
	h := d.Hist("h")
	if h.Count != 2 || h.Sum != 4005 {
		t.Errorf("hist diff count=%d sum=%d, want 2/4005", h.Count, h.Sum)
	}
	wantBuckets := []Bucket{{4, 7, 1}, {2048, 4095, 1}}
	if !reflect.DeepEqual(h.Buckets, wantBuckets) {
		t.Errorf("hist diff buckets = %+v, want %+v", h.Buckets, wantBuckets)
	}

	// Diff of identical snapshots is empty.
	if e := after.Diff(after); len(e.Counters)+len(e.Gauges)+len(e.Histograms) != 0 {
		t.Errorf("self-diff not empty: %+v", e)
	}
}

// TestSnapshotJSONGolden pins the serialised snapshot shape — the
// contract for /metrics.json consumers, dump files, and cmd/report's
// -telemetry-in. Regenerate with UPDATE_GOLDEN=1.
func TestSnapshotJSONGolden(t *testing.T) {
	r := New()
	r.Counter("campaign.iterations").Add(160)
	r.Counter("campaign.prefilter.hits").Add(12)
	r.Gauge("campaign.pool_size").Set(84)
	for _, v := range []int64{0, 1, 3, 900, 900, 1 << 14} {
		r.Histogram("campaign.stage.commit_ns").Observe(v)
	}
	blob, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')

	golden := filepath.Join("testdata", "snapshot_golden.json")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(blob) != string(want) {
		t.Errorf("snapshot JSON drifted from golden:\n--- got ---\n%s--- want ---\n%s", blob, want)
	}

	// And it must round-trip: unmarshal + MergeSnapshot reproduces the
	// same snapshot (the dump-and-reload path).
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	r2 := New()
	r2.MergeSnapshot(back)
	if !reflect.DeepEqual(r2.Snapshot(), r.Snapshot()) {
		t.Error("snapshot did not survive JSON round-trip + MergeSnapshot")
	}
}

func TestNames(t *testing.T) {
	r := New()
	r.Counter("b.c")
	r.Gauge("a.g")
	r.Histogram("z.h")
	want := []string{"a.g", "b.c", "z.h"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

// TestHTTPEndpoint drives the live surface end to end on an ephemeral
// port: /healthz answers ok, /metrics.json serves the current merged
// snapshot as valid JSON.
func TestHTTPEndpoint(t *testing.T) {
	r1, r2 := New(), New()
	r1.Counter("c").Add(5)
	r2.Counter("c").Add(7)
	srv, err := Serve("127.0.0.1:0", LiveSnapshot(r1, nil, r2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}

	r1.Counter("c").Add(1) // live: served value must reflect this
	resp, err = http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics.json: status %d", resp.StatusCode)
	}
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v\n%s", err, body)
	}
	if got := s.Counter("c"); got != 13 {
		t.Fatalf("served counter = %d, want 13 (merged 6+7)", got)
	}
}

// TestServeShutdown covers the graceful path: after Shutdown returns,
// the port is released (a second Serve can bind it) and new requests
// are refused.
func TestServeShutdown(t *testing.T) {
	r := New()
	srv, err := Serve("127.0.0.1:0", LiveSnapshot(r))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/healthz"); err != nil {
		t.Fatalf("pre-shutdown request: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr + "/healthz"); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
	// The address is free again.
	srv2, err := Serve(srv.Addr, LiveSnapshot(r))
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	srv2.Close()
}
