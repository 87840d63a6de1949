package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// maxSeedBytes bounds one submission body.
const maxSeedBytes = 1 << 20

// handler builds the daemon's HTTP surface:
//
//	POST /api/seeds          — submit a classfile for the corpus
//	                           (202 queued, 400 malformed or over
//	                           the verifier-footprint cap, 413 too
//	                           large, 429 queue full, 503 draining)
//	GET  /api/status         — shard/corpus/queue/discrepancy counts
//	GET  /api/discrepancies  — ?since=N lists entries with ID >= N;
//	                           &wait=1 long-polls for new ones
//	POST /api/checkpoint     — rewrite state.json, answer the shard
//	                           epoch frontiers it holds
//	GET  /metrics.json       — live telemetry (session + running epochs)
//	GET  /healthz            — liveness
//	GET  /                   — dashboard
func (m *Manager) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/seeds", m.handleSeeds)
	mux.HandleFunc("GET /api/status", m.handleStatus)
	mux.HandleFunc("GET /api/discrepancies", m.handleDiscrepancies)
	mux.HandleFunc("POST /api/checkpoint", m.handleCheckpoint)
	tel := telemetry.Handler(m.liveSnapshot)
	mux.Handle("/metrics.json", tel)
	mux.Handle("/healthz", tel)
	mux.HandleFunc("GET /{$}", m.handleDashboard)
	return mux
}

func respondJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	blob, _ := json.MarshalIndent(v, "", "  ")
	w.Write(append(blob, '\n'))
}

// handleSeeds implements the backpressured intake: the bounded queue
// is the only buffer, a full queue answers 429 immediately (callers
// retry with backoff), and a draining daemon answers 503 so load
// balancers fail over.
func (m *Manager) handleSeeds(w http.ResponseWriter, r *http.Request) {
	if m.stopping.Load() {
		respondJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSeedBytes))
	if err != nil {
		respondJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "body too large"})
		return
	}
	// Validate before queueing: malformed submissions cost the
	// submitter a 400, not the intake worker a cycle.
	c, err := liftSeed(data)
	if err != nil {
		m.tel.Counter(MetricSeedsRejected).Inc()
		respondJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("not a liftable classfile: %v", err)})
		return
	}
	// Under a scheduling strategy the seed runs on the reference VM
	// here, once and outside m.mu: intake classifies it by this run.
	sub := submission{data: data, class: c}
	if m.seedIndex != nil {
		sub.run = seedsel.RunSeeds([]*jimple.Class{c}, jvm.HotSpot9())[0]
	}
	select {
	case m.queue <- sub:
		depth := int64(len(m.queue))
		m.tel.Gauge(MetricQueueDepth).Set(depth)
		resp := map[string]any{"status": "queued", "depth": depth}
		m.mu.Lock()
		if depth > m.queueHWM {
			m.queueHWM = depth
			m.tel.Gauge(MetricQueueHighWater).Set(depth)
		}
		// Under a scheduling strategy, tell the submitter where its
		// seed lands: structural fingerprint, baseline trace key, and
		// the cluster intake assigns it to. Adoption grows the index
		// under m.mu, so the lookup holds it; the run above did not.
		if m.seedIndex != nil {
			sc := m.seedIndex.Classify(sub.run)
			resp["fingerprint"] = fmt.Sprintf("%016x", sc.Fingerprint)
			resp["trace_key"] = fmt.Sprintf("%016x%016x", sc.TraceKeyHi, sc.TraceKeyLo)
			resp["cluster"] = sc.Cluster
		}
		m.mu.Unlock()
		respondJSON(w, http.StatusAccepted, resp)
	default:
		m.tel.Counter(MetricSeedsThrottled).Inc()
		w.Header().Set("Retry-After", "1")
		respondJSON(w, http.StatusTooManyRequests, map[string]string{"error": "intake queue full"})
	}
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	respondJSON(w, http.StatusOK, m.Status())
}

// handleDiscrepancies lists (and optionally long-polls for) the
// discrepancy log. The response's next field is the since value that
// continues the stream.
func (m *Manager) handleDiscrepancies(w http.ResponseWriter, r *http.Request) {
	since := 0
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			respondJSON(w, http.StatusBadRequest, map[string]string{"error": "since must be a non-negative integer"})
			return
		}
		since = n
	}
	wait := r.URL.Query().Get("wait") != ""
	deadline := time.After(25 * time.Second)
	for {
		ds, next, wake := m.discrepancyPage(since)
		if len(ds) > 0 || !wait {
			respondJSON(w, http.StatusOK, map[string]any{"next": next, "discrepancies": ds})
			return
		}
		select {
		case <-wake:
		case <-deadline:
			respondJSON(w, http.StatusOK, map[string]any{"next": next, "discrepancies": ds})
			return
		case <-r.Context().Done():
			return
		case <-m.stopCh:
			respondJSON(w, http.StatusOK, map[string]any{"next": next, "discrepancies": ds})
			return
		}
	}
}

func (m *Manager) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	epochs, err := m.Checkpoint()
	if err != nil {
		respondJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	respondJSON(w, http.StatusOK, map[string][]int{"shard_epochs": epochs})
}

func (m *Manager) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, dashboardHTML)
}
