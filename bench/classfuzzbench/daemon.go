package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/internal/result"
	"repro/bench/internal/stats"
	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/prng"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// submitStream derives the seed of the generated classfiles daemon-api
// submits, so they differ from the daemon's own base corpus.
const submitStream = 0x5eb5eed

// request is one API call of the open-loop client.
type request struct {
	endpoint string
	due      time.Time
	latency  time.Duration // completion − due time
	late     time.Duration // send − due time
	note     string        // why the call failed; empty when it succeeded
}

// apiClient is daemon-api's client: one keep-alive connection to the
// daemon's loopback listener.
type apiClient struct {
	base string
	http *http.Client
}

func (a *apiClient) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := a.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// discrepancyPage is the /api/discrepancies document.
type discrepancyPage struct {
	Next          int                   `json:"next"`
	Discrepancies []service.Discrepancy `json:"discrepancies"`
}

// tail fetches the discrepancies from since on and returns the cursor
// for the next call, checking that IDs are consecutive from since.
func (a *apiClient) tail(since int) (int, error) {
	var page discrepancyPage
	if err := a.do("GET", fmt.Sprintf("/api/discrepancies?since=%d", since), nil, &page); err != nil {
		return since, err
	}
	for i, d := range page.Discrepancies {
		if d.ID != since+i {
			return since, fmt.Errorf("discrepancy %d of a page from %d has ID %d", i, since, d.ID)
		}
	}
	return since + len(page.Discrepancies), nil
}

// daemonStream derives each daemon-api round's daemon seed.
const daemonStream = 0xdae

// daemonRun is one daemon-api round: a daemon from start to drain.
type daemonRun struct {
	setup, wall time.Duration
	allocs      uint64
	reqs        []request
	start       time.Time
	snap        telemetry.Snapshot
	stateMiB    float64
	memoMiB     float64
}

// startedDaemon is a daemon set up and started on a fresh data
// directory, with the classfiles its client will submit.
type startedDaemon struct {
	m    *service.Manager
	dir  string
	seed int64
	subs [][]byte
}

func stopDaemon(m *service.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return m.Stop(ctx)
}

// startDaemon is daemon-api's set-up: generate the submissions and
// validate them as the daemon will (parse, then lift), then start a
// daemon with seed seed on a fresh data directory.
func (c *runCtx) startDaemon(o *outcome, seed int64) (*startedDaemon, time.Duration, error) {
	sz := c.size.daemon
	t0 := time.Now()
	subs, err := c.generateFiles(sz.submissions, prng.Mix(seed, submitStream, 0))
	if err != nil {
		return nil, 0, err
	}
	liftFailures := 0
	for _, data := range subs {
		f, err := classfile.Parse(data)
		if err == nil {
			_, err = jimple.Lift(f)
		}
		if err != nil {
			liftFailures++
		}
	}
	dir, err := os.MkdirTemp(c.workdir, "daemon-")
	if err != nil {
		return nil, 0, err
	}
	m := service.New(service.Config{
		DataDir:      dir,
		Addr:         "127.0.0.1:0",
		Shards:       sz.shards,
		Workers:      1,
		Criterion:    coverage.STBR,
		SeedCount:    sz.seeds,
		Seed:         seed,
		Iterations:   sz.iters,
		Epochs:       sz.epochs,
		SeedStrategy: "uniform",
	})
	if err := m.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d := time.Since(t0)
	o.check(liftFailures == 0, "%d of %d submissions do not lift", liftFailures, len(subs))
	return &startedDaemon{m: m, dir: dir, seed: seed, subs: subs}, d, nil
}

// daemonAPI runs rounds of an in-process daemon on a loopback listener,
// each with a fresh data directory and its own seed, until every shard
// has run its epochs, while an open-loop client on one keep-alive
// connection first submits classfiles and then alternates status and
// discrepancy-tail reads.
func daemonAPI(c *runCtx) (*outcome, error) {
	o := newOutcome()
	sz := c.size.daemon
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	var ct *campaignTrace
	if c.tr != nil {
		ct = newCampaignTrace(c)
	}
	var setups []float64
	var runs []*daemonRun
	for r := 0; r < sz.rounds; r++ {
		run, err := c.daemonRound(o, r, ct)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
		runs = append(runs, run)
	}
	// Further set-ups, started and stopped again at once, so setup_s is
	// a median of at least setupRepeats starts.
	for r := len(setups); r < setupRepeats; r++ {
		d, dur, err := c.startDaemon(o, prng.Mix(c.seed, daemonStream, uint64(r)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		if err := stopDaemon(d.m); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(d.dir); err != nil {
			return nil, err
		}
	}
	o.set("setup_s", stats.Median(setups))

	var wall time.Duration
	var allocs uint64
	var all []float64
	byEndpoint := map[string][]float64{}
	var lateMax time.Duration
	var generated, busy, checkpoints int64
	var dtClasses, dtVMRuns, dtProbes, dtHits int64
	var stateMiB, memoMiB []float64
	for r, run := range runs {
		wall += run.wall
		allocs += run.allocs
		for _, q := range run.reqs {
			o.check(q.note == "", "round %d: %s request due at +%v failed: %s", r, q.endpoint, q.due.Sub(run.start), q.note)
			ms := float64(q.latency.Nanoseconds()) / 1e6
			all = append(all, ms)
			byEndpoint[q.endpoint] = append(byEndpoint[q.endpoint], ms)
			lateMax = max(lateMax, q.late)
		}
		generated += run.snap.Counter("campaign.generated")
		for _, stage := range []string{"draw", "mutate", "prefilter", "exec", "commit"} {
			busy += run.snap.Hist("campaign.stage." + stage + "_ns").Sum
		}
		checkpoints += run.snap.Counter(service.MetricCheckpointsWritten)
		dtClasses += run.snap.Counter(difftest.MetricClasses)
		dtVMRuns += run.snap.Counter(difftest.MetricVMRuns)
		dtProbes += run.snap.Counter(difftest.MetricMemoProbes)
		dtHits += run.snap.Counter(difftest.MetricMemoHits)
		stateMiB = append(stateMiB, run.stateMiB)
		memoMiB = append(memoMiB, run.memoMiB)
	}
	iters := sz.rounds * sz.shards * sz.epochs * sz.iters
	o.set("wall_s", wall.Seconds())
	o.ratio("iters_per_s", float64(iters), wall.Seconds())
	o.ratio("classes_per_s", float64(generated), wall.Seconds())
	setLatency(o, all)
	o.ratio("allocs_per_iter", float64(allocs), float64(iters))

	for _, ep := range []string{"seeds", "checkpoint", "status", "discrepancies"} {
		if xs := byEndpoint[ep]; len(xs) > 0 {
			o.set("api."+ep+"_p50_ms", stats.Median(xs))
		}
	}
	if p, ok := stats.TailPercentile(len(all)); ok && p >= 90 {
		o.metrics["api.p90_ms"] = result.Metric{Value: stats.Percentile(all, 90), Unit: unitOf("api.p90_ms"), Base: fmt.Sprintf("%d samples", len(all))}
	}
	o.set("client.late_max_ms", float64(lateMax.Nanoseconds())/1e6)
	o.ratio("service.engine_busy_frac", float64(busy)/1e6, float64(sz.shards)*float64(wall.Nanoseconds())/1e6)
	o.set("service.state_json_mb", stats.Median(stateMiB))
	o.set("service.memo_json_mb", stats.Median(memoMiB))
	o.ratio("service.checkpoints_written", float64(checkpoints), float64(sz.rounds))
	o.ratio("difftest.memo_hit_rate", float64(dtHits), float64(dtProbes))
	o.ratio("difftest.vm_runs_per_class", float64(dtVMRuns), float64(dtClasses))
	if ct != nil {
		ct.layers(o)
	}
	return o, nil
}

// daemonRound runs round r: set-up, the open loop until the daemon has
// run all its epochs, the final reads and their checks, and the drain.
// A traced round then traces the last epoch of every shard with ct.
func (c *runCtx) daemonRound(o *outcome, r int, ct *campaignTrace) (*daemonRun, error) {
	sz := c.size.daemon
	tag := fmt.Sprintf("round %d", r)
	d, setup, err := c.startDaemon(o, prng.Mix(c.seed, daemonStream, uint64(r)))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d.dir)
	m, subs := d.m, d.subs
	run := &daemonRun{setup: setup}

	client := &apiClient{
		base: "http://" + m.Addr(),
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Minute,
		},
	}
	defer client.http.CloseIdleConnections()

	// The open loop: request k is due at start + k/rate whatever the
	// daemon's state. The first requests submit the classfiles and then
	// ask for one checkpoint (a fixed count per round, where a timer's
	// count would grow with the round's length); the rest alternate
	// status and discrepancy-tail reads. The client keeps going until
	// the daemon has run all its epochs and every write has been sent.
	interval := time.Duration(float64(time.Second) / sz.rate)
	done := make(chan struct{})
	next := 0
	var wg sync.WaitGroup
	m0 := mallocs()
	start := time.Now()
	run.start = start
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			writes := len(subs) + 1
			if wait := time.Until(due); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-timer.C:
				case <-done:
					timer.Stop()
					if k >= writes {
						return
					}
					time.Sleep(time.Until(due))
				}
			} else if k >= writes {
				select {
				case <-done:
					return
				default:
				}
			}
			sent := time.Now()
			q := request{due: due, late: sent.Sub(due)}
			var err error
			switch {
			case k < len(subs):
				q.endpoint = "seeds"
				err = client.do("POST", "/api/seeds", subs[k], nil)
			case k == len(subs):
				q.endpoint = "checkpoint"
				err = client.do("POST", "/api/checkpoint", nil, nil)
			case (k-writes)%2 == 0:
				q.endpoint = "status"
				var st service.Status
				err = client.do("GET", "/api/status", nil, &st)
			default:
				q.endpoint = "discrepancies"
				next, err = client.tail(next)
			}
			q.latency = time.Since(due)
			if err != nil {
				q.note = err.Error()
			}
			c.tr.span("api."+q.endpoint, due, map[string]any{"round": r, "late_ms": float64(q.late.Nanoseconds()) / 1e6, "ok": err == nil})
			run.reqs = append(run.reqs, q)
		}
	}()
	m.Wait()
	run.wall = time.Since(start)
	run.allocs = mallocs() - m0
	close(done)
	wg.Wait()

	// The final reads: the daemon's state after its last epoch.
	var st service.Status
	err = client.do("GET", "/api/status", nil, &st)
	o.check(err == nil, "%s: final status: %v", tag, err)
	for err == nil {
		var n int
		n, err = client.tail(next)
		if n == next {
			break
		}
		next = n
	}
	o.check(err == nil, "%s: final discrepancy tail: %v", tag, err)
	o.check(next == st.Discrepancies, "%s: discrepancy tail ends at %d, status counts %d", tag, next, st.Discrepancies)
	for _, sh := range st.Shards {
		o.check(sh.State == "done", "%s: shard %d ended %q", tag, sh.ID, sh.State)
	}
	err = client.do("GET", "/metrics.json", nil, &run.snap)
	o.check(err == nil, "%s: final /metrics.json: %v", tag, err)
	accepted := run.snap.Counter(service.MetricSeedsAccepted)
	epochs := run.snap.Counter(service.MetricEpochsCompleted)
	o.check(accepted == int64(len(subs)), "%s: %d submissions, %d adopted", tag, len(subs), accepted)
	o.check(epochs == int64(sz.shards*sz.epochs), "%s: %d epochs completed, want %d", tag, epochs, sz.shards*sz.epochs)
	o.invariants[tag] = fmt.Sprintf("seeds_accepted=%d epochs_completed=%d tail_next_equals_status=%v",
		accepted, epochs, next == st.Discrepancies)

	if err := stopDaemon(m); err != nil {
		return nil, err
	}
	run.stateMiB = fileMiB(filepath.Join(d.dir, "state.json"))
	run.memoMiB = fileMiB(filepath.Join(d.dir, "memo.json"))
	if ct != nil {
		if err := traceEpochs(ct, d); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// daemonCampaignStream is the daemon's stream for deriving each shard
// epoch's campaign seed (prng.Mix(seed, stream, shard<<32|epoch)). The
// service keeps it unexported; an epoch re-run with a wrong one would
// not reproduce the daemon's result, which the trace checks.
const daemonCampaignStream = 0x5ec1a55f

// traceEpochs re-runs and replays the last epoch of every shard of a
// drained daemon. An epoch's corpus is the daemon's base seeds plus the
// submissions adopted before the epoch began; the longest prefix whose
// campaign reproduces the daemon's result is that corpus.
func traceEpochs(ct *campaignTrace, d *startedDaemon) error {
	sz := ct.c.size.daemon
	base := ct.c.generate(sz.seeds, d.seed)
	var subs []*jimple.Class
	for _, data := range d.subs {
		f, err := classfile.Parse(data)
		if err != nil {
			return err
		}
		cl, err := jimple.Lift(f)
		if err != nil {
			return err
		}
		subs = append(subs, cl)
	}
	epoch := sz.epochs - 1
	for shard := 0; shard < sz.shards; shard++ {
		want := d.m.Session().Campaigns[fmt.Sprintf("shard%d/epoch%d", shard, epoch)]
		if want == nil {
			ct.r.mismatch("daemon holds no result for shard %d epoch %d", shard, epoch)
			continue
		}
		cfg := campaign.Config{
			Algorithm:       campaign.Classfuzz,
			Criterion:       coverage.STBR,
			Iterations:      sz.iters,
			Rand:            prng.Mix(d.seed, daemonCampaignStream, uint64(shard)<<32|uint64(epoch)),
			RefSpec:         jvm.HotSpot9(),
			StaticPrefilter: true,
		}
		used := len(subs)
		for ; used > 0; used-- {
			cfg.Source = campaign.FlatSeeds(append(base[:len(base):len(base)], subs[:used]...))
			res, err := campaign.Run(cfg)
			if err != nil {
				return err
			}
			if resultDigest(res) == resultDigest(want) {
				break
			}
		}
		corpus := append(base[:len(base):len(base)], subs[:used]...)
		ct.newMemo()
		src := func() (campaign.SeedSource, error) { return campaign.FlatSeeds(corpus), nil }
		if err := ct.run(cfg, src, want); err != nil {
			return err
		}
	}
	return nil
}

func fileMiB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}
