// Command classfuzzd is the fuzzing daemon: a long-running service
// hosting N sharded campaigns over the staged engine, with epoch-level
// durability (kill it — even kill -9 — and a restart on the same data
// directory runs each cut-short epoch again from iteration 0, so the
// folds are byte-identical to an uninterrupted run's), an HTTP
// corpus/work API with backpressure, and a live dashboard.
//
// Usage:
//
//	classfuzzd -data DIR [-addr HOST:PORT] [-shards N] [-workers N]
//	           [-alg classfuzz|randfuzz|greedyfuzz|uniquefuzz]
//	           [-criterion stbr|st|tr] [-seeds N] [-iters N] [-seed N]
//	           [-seed-strategy uniform|clustered|yield]
//	           [-epochs N] [-queue N]
//
// API quick reference (see DESIGN.md "Service layer"):
//
//	curl -s localhost:8317/api/status
//	curl -s --data-binary @T.class -X POST localhost:8317/api/seeds
//	curl -s 'localhost:8317/api/discrepancies?since=0'
//	curl -s -X POST localhost:8317/api/checkpoint   # rewrite state.json
//	curl -s localhost:8317/metrics.json
//
// SIGTERM/SIGINT drain gracefully: intake answers 503, running epochs
// stop at a draw boundary without folding (the restart runs
// them again), queued seeds persist.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/seedsel"
	"repro/internal/service"
)

func main() {
	dataDir := flag.String("data", "", "persistent data directory (required)")
	addr := flag.String("addr", "127.0.0.1:8317", "HTTP listen address (\"\" disables the API, :0 picks a port)")
	shards := flag.Int("shards", 2, "concurrent campaign shards")
	workers := flag.Int("workers", 1, "engine workers per shard (results are identical at any value)")
	alg := flag.String("alg", "classfuzz", "algorithm: classfuzz, randfuzz, greedyfuzz, uniquefuzz")
	criterion := flag.String("criterion", "stbr", "uniqueness criterion for classfuzz: st, stbr, tr")
	seedCount := flag.Int("seeds", 60, "generated base seed classes")
	iters := flag.Int("iters", 400, "iterations per shard epoch")
	seed := flag.Int64("seed", 1, "daemon seed (roots every shard epoch's derived campaign seed)")
	seedStrategy := flag.String("seed-strategy", "uniform", "seed selection: uniform, clustered, yield")
	epochs := flag.Int("epochs", 0, "epochs per shard (0 = run until stopped)")
	queueCap := flag.Int("queue", 64, "seed-intake queue capacity (full queue answers 429)")
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "classfuzzd: -data DIR is required")
		os.Exit(2)
	}
	crit, err := coverage.ParseCriterion(*criterion)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown criterion %q\n", *criterion)
		os.Exit(2)
	}
	if _, err := seedsel.ParseStrategy(*seedStrategy); err != nil {
		fmt.Fprintf(os.Stderr, "unknown seed strategy %q (want %s)\n", *seedStrategy, seedsel.Strategies())
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "classfuzzd: ", log.LstdFlags)
	m := service.New(service.Config{
		DataDir:      *dataDir,
		Addr:         *addr,
		Shards:       *shards,
		Workers:      *workers,
		Algorithm:    campaign.Algorithm(*alg),
		Criterion:    crit,
		SeedCount:    *seedCount,
		Seed:         *seed,
		SeedStrategy: *seedStrategy,
		Iterations:   *iters,
		Epochs:       *epochs,
		QueueCap:     *queueCap,
		Logf:         logger.Printf,
	})
	if err := m.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "classfuzzd: %v\n", err)
		os.Exit(1)
	}
	if a := m.Addr(); a != "" {
		// Machine-readable bound address on stdout (scripts parse this).
		fmt.Printf("listening on http://%s/\n", a)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		m.Wait()
		close(done)
	}()
	select {
	case sig := <-sigCh:
		logger.Printf("caught %s; draining (running epochs stop and run again after a restart)", sig)
	case <-done:
		logger.Printf("epoch budget complete; shutting down")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "classfuzzd: shutdown: %v\n", err)
		os.Exit(1)
	}
	logger.Printf("stopped cleanly")
}
