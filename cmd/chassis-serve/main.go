// chassis-serve is the online prediction service: it loads a fitted model
// (chassis-fit -savefull) together with its training dataset and serves
// next-activity and count forecasts over an HTTP JSON API, with model
// hot-reload, request micro-batching, and graceful drain.
//
// Usage:
//
//	chassis-fit -in sf.json -strategy CHASSIS-L -savefull model.json
//	chassis-serve -model model.json -data sf.json -split 0.7 -addr :8347
//
//	curl -s localhost:8347/healthz
//	curl -s -X POST localhost:8347/v1/predict/next -d '{"history":[{"user":3,"time":12.5}],"lookahead":50,"seed":7}'
//	curl -s -X POST localhost:8347/v1/ingest -d '{"cascade_id":"c1","events":[{"user":2,"time":40.5}]}'
//	curl -s -X POST localhost:8347/admin/reload        # after refitting
//	curl -s -X POST localhost:8347/admin/refit         # fold ingested events into the model
//
// The model file is also re-fingerprinted every -reload-poll (set 0 to
// disable) and on SIGHUP; a failed reload keeps the previous model serving.
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests flush, and the process exits 0.
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

	"chassis/internal/cliobs"
	"chassis/internal/ingest"
	"chassis/internal/serve"
	"chassis/internal/wal"
)

func main() {
	var (
		model   = flag.String("model", "", "fitted model JSON (chassis-fit -savefull)")
		data    = flag.String("data", "", "dataset JSON the model was fitted against")
		split   = flag.Float64("split", 0, "training fraction the model was fitted on (chassis-fit -split); 0 or >= 1 means the full sequence")
		addr    = flag.String("addr", "localhost:8347", "listen address (port 0 picks a free port)")
		workers = flag.Int("workers", 0, "worker goroutines per prediction batch (0 = all cores); results are identical at any setting")
		batch   = flag.Int("batch", 0, "max requests coalesced into one batch (0 = default 16, 1 disables coalescing)")
		queue   = flag.Int("queue", 0, "bounded request queue depth (0 = default 64); a full queue answers 429")
		window  = flag.Duration("batch-window", 0, "how long a batch waits for more requests (0 = default 2ms)")
		poll    = flag.Duration("reload-poll", 10*time.Second, "model file re-fingerprint interval for hot-reload (0 disables; SIGHUP and POST /admin/reload always work)")
		reqTO   = flag.Duration("request-timeout", 30*time.Second, "per-request prediction deadline (a request's timeout_ms can tighten it)")
		drainTO = flag.Duration("drain-timeout", 15*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		pprof   = flag.Bool("pprof", false, "mount /debug/pprof on the serving listener")
		hcache  = flag.Int("history-cache", 0, "LRU cache entries for per-history fastpath state (0 = default 256, -1 disables); responses are bit-identical either way")
		refitEv = flag.Duration("refit-every", 0, "periodic incremental refit over ingested events (0 disables; POST /admin/refit always works)")
		refitPs = flag.Int("refit-passes", 0, "projected-gradient passes per incremental refit (0 = default 5)")
		casCap  = flag.Int("max-cascades", 0, "live ingest cascades kept before LRU eviction (0 = default 1024, -1 unbounded)")
		casEvts = flag.Int("max-cascade-events", 0, "event cap per ingest cascade (0 = default 65536)")
		walDir  = flag.String("wal-dir", "", "write-ahead log directory for durable ingest (empty disables durability; on boot the log is replayed before ingest is accepted)")
		walSync = flag.String("wal-sync", "always", "WAL fsync policy: always (every ingest ack is on disk), interval (group fsync every -wal-sync-interval; acknowledged events within the last interval can be lost to a crash), off (fsync only on rotation and shutdown)")
		walIntv = flag.Duration("wal-sync-interval", 0, "group-commit fsync period under -wal-sync=interval (0 = default 50ms); also the acknowledged-durability window")
		walSeg  = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = default 16MiB)")
		walKeep = flag.Int("wal-compact-segments", 0, "sealed segments that trigger snapshot compaction (0 = default 4)")
		walTO   = flag.Duration("wal-stall-timeout", 0, "how long an ingest ack waits for its fsync before shedding 503 wal_stalled (0 = default 2s)")
		version = cliobs.RegisterVersion(flag.CommandLine)
	)
	flag.Parse()
	if cliobs.HandleVersion(os.Stdout, "chassis-serve", *version) {
		return
	}
	if *model == "" || *data == "" {
		fmt.Fprintln(os.Stderr, "chassis-serve: -model and -data are required")
		os.Exit(2)
	}
	syncPolicy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chassis-serve: %v\n", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "chassis-serve: ", log.LstdFlags)
	s, err := serve.New(serve.Config{
		Addr:   *addr,
		Source: serve.Source{ModelPath: *model, DataPath: *data, Split: *split},
		Batch: serve.BatchConfig{
			MaxBatch: *batch, QueueDepth: *queue,
			Window: *window, Workers: *workers,
		},
		ReloadEvery: *poll,
		RefitEvery:  *refitEv,
		RefitPasses: *refitPs,
		Ingest:      ingest.Config{MaxCascades: *casCap, MaxEvents: *casEvts},
		WAL: wal.Config{
			Dir: *walDir, Sync: syncPolicy, SyncEvery: *walIntv,
			SegmentBytes: *walSeg, CompactAfter: *walKeep, StallTimeout: *walTO,
		},
		RequestTimeout: *reqTO,
		DrainTimeout:   *drainTO,
		EnablePprof:    *pprof,
		HistoryCache:   *hcache,
		Logf:           logger.Printf,
		OnReady: func(addr string) {
			logger.Printf("serving on http://%s (%s)", addr, cliobs.Buildinfo())
		},
	})
	if err != nil {
		logger.Printf("startup failed: %v", err)
		os.Exit(1)
	}

	// First SIGINT/SIGTERM begins the graceful drain; a clean drain exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP forces a reload, the conventional "re-read your config" signal.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if _, snap, err := s.Registry().Reload(true); err != nil {
				logger.Printf("SIGHUP reload failed (previous model keeps serving): %v", err)
			} else {
				logger.Printf("SIGHUP reload: model version %d", snap.Version)
			}
		}
	}()

	if err := s.Run(ctx); err != nil {
		logger.Printf("%v", err)
		os.Exit(1)
	}
	logger.Printf("drained, exiting")
}
