package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chassis/internal/cliobs"
	"chassis/internal/hawkes"
	"chassis/internal/ingest"
	"chassis/internal/obs"
	"chassis/internal/predict"
	"chassis/internal/timeline"
	"chassis/internal/wal"
)

// Config assembles a prediction server. Zero values select the documented
// defaults; only Source is required.
type Config struct {
	// Addr is the listen address for Run (default "localhost:8347";
	// port 0 picks a free port, reported through OnReady).
	Addr string
	// Source names the model/dataset files the registry serves.
	Source Source
	// Batch tunes the micro-batching dispatcher.
	Batch BatchConfig
	// ReloadEvery enables the file watcher: the registry re-fingerprints
	// the source files at this interval and hot-reloads changed contents.
	// 0 disables polling; SIGHUP and POST /admin/reload still work.
	ReloadEvery time.Duration
	// RequestTimeout caps each prediction request's deadline (default
	// 30s); a request's timeout_ms can tighten but not extend it.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful drain on shutdown (default 15s).
	DrainTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// HistoryCache caps the LRU cache of per-history continuation states
	// that lets repeat queries over the same history skip the O(history)
	// fast-path state rebuild. 0 selects the default (256 entries); < 0
	// disables caching. Responses are bit-identical either way; only
	// exponential-kernel models (core.Config.ExpKernel fits) have states
	// to cache.
	HistoryCache int
	// Ingest bounds the streaming cascade store behind /v1/ingest (zero
	// values select ingest's defaults: 1024 cascades, 65536 events each).
	Ingest ingest.Config
	// RefitEvery enables the periodic incremental EM refresh: every
	// interval the server merges the training timeline with all ingested
	// cascades, runs the warm-started mini-batch M-step, and hot-installs
	// the result. 0 disables the loop; POST /admin/refit still works.
	RefitEvery time.Duration
	// RefitPasses bounds the projected-gradient iterations per dimension
	// in each incremental refit (0 selects 5).
	RefitPasses int
	// WAL enables the durable ingest write-ahead log when WAL.Dir is set:
	// every applied append and refit install is logged, Run replays the log
	// on boot before accepting ingest (readyz reports 503 replaying
	// meanwhile), and recovered responses are bit-identical to an uncrashed
	// process. Empty Dir disables durability entirely (the pre-WAL
	// behaviour: live state dies with the process).
	WAL wal.Config
	// Metrics receives the server's instruments and backs /metrics
	// (nil: a fresh registry, so /metrics always works).
	Metrics *obs.Metrics
	// Buildinfo is the build identity /healthz reports (default: the
	// shared cliobs.Buildinfo line every chassis binary prints).
	Buildinfo string
	// Logf, when non-nil, receives operational log lines (reloads, drain
	// progress). The library never writes anywhere else.
	Logf func(format string, args ...any)
	// OnReady, when non-nil, is called by Run with the bound listen
	// address before serving starts.
	OnReady func(addr string)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "localhost:8347"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.Buildinfo == "" {
		c.Buildinfo = cliobs.Buildinfo()
	}
	return c
}

// Server is the online prediction service: registry + dispatcher + HTTP
// API. Construct with New (which loads the initial model), serve with Run
// (blocking; graceful drain on ctx cancellation) or mount Handler on an
// HTTP server of your own.
type Server struct {
	cfg       Config
	reg       *Registry
	disp      *Dispatcher
	cache     *histCache // nil when HistoryCache < 0
	store     *ingest.Store
	metrics   *obs.Metrics
	mux       *http.ServeMux
	started   time.Time
	stopping  atomic.Bool
	refitBusy atomic.Bool // single-flight guard for refitOnce

	// Durability plumbing; all zero-valued (and walRecovered pre-set) when
	// no WAL is configured.
	wal          *wal.WAL
	walGate      sync.RWMutex // appends hold R across apply+log; compaction holds W
	walRecovered atomic.Bool  // flips once Recover finishes; handlers gate on it
	recoverOnce  sync.Once
	recoverErr   error
	walChain     refitChain  // refit recipes since the last file-derived model
	compactBusy  atomic.Bool // single-flight guard for compactWAL
}

// New builds a server and performs the initial model load — a broken model
// file fails fast here, not on the first request.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: cfg.Metrics,
		reg:     NewRegistry(cfg.Source, cfg.Metrics),
		disp:    NewDispatcher(cfg.Batch, cfg.Metrics),
		cache:   newHistCache(cfg.HistoryCache, cfg.Metrics),
		store:   ingest.NewStore(cfg.Ingest, cfg.Metrics),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if err := s.reg.Load(); err != nil {
		return nil, err
	}
	if cfg.WAL.Dir != "" {
		wcfg := cfg.WAL
		if wcfg.Logf == nil {
			wcfg.Logf = cfg.Logf
		}
		w, err := wal.Open(wcfg, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		s.wal = w
	} else {
		// No WAL: nothing to replay, handlers never gate.
		s.walRecovered.Store(true)
	}
	s.routes()
	return s, nil
}

// Registry exposes the model registry (SIGHUP handlers, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the server's HTTP handler for mounting on an external
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown of the dispatcher: new prediction work is
// refused with a typed 503 while accepted work flushes. Run calls this
// automatically; it is exported for servers mounted via Handler.
func (s *Server) Drain(ctx context.Context) error {
	s.stopping.Store(true)
	return s.disp.Drain(ctx)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains
// gracefully: stop accepting connections, flush in-flight requests and
// queued predictions, and return nil on a clean drain. Wire ctx to
// SIGTERM/SIGINT (cmd/chassis-serve does) to get the conventional
// "SIGTERM drains and exits 0" behaviour.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	if s.cfg.OnReady != nil {
		s.cfg.OnReady(ln.Addr().String())
	}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	startLoops := func() {
		if s.cfg.ReloadEvery > 0 {
			go s.reg.Watch(watchCtx, s.cfg.ReloadEvery, func(err error) {
				s.logf("hot-reload failed (previous model keeps serving): %v", err)
			})
		}
		if s.cfg.RefitEvery > 0 {
			go s.refitLoop(watchCtx)
		}
	}
	// WAL recovery runs alongside the listener: inline-history predicts are
	// served from the initial file model immediately, while ingest and
	// cascade-addressed reads answer 503 replaying (readyz too) until the
	// replay completes. The reload/refit loops wait for recovery — both
	// would mutate the version chain replay is rebuilding.
	recovered := make(chan error, 1)
	go func() { recovered <- s.Recover(watchCtx) }()

	hs := &http.Server{Handler: s.mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var runErr error
loop:
	for {
		select {
		case err := <-served:
			s.closeWAL()
			return fmt.Errorf("serve: http server: %w", err)
		case rerr := <-recovered:
			if rerr != nil {
				// A WAL that cannot be recovered is fatal: serving without it
				// would silently drop the durability the operator asked for.
				s.logf("wal recovery failed, shutting down: %v", rerr)
				runErr = fmt.Errorf("serve: wal recovery: %w", rerr)
				break loop
			}
			startLoops()
			recovered = nil // recovered; never selected again
		case <-ctx.Done():
			break loop
		}
	}

	// Graceful drain: readyz goes negative, the listener stops accepting
	// and in-flight HTTP requests complete (Shutdown), then the dispatcher
	// flushes whatever those requests enqueued, and only then — once no job
	// can append another record — the WAL flushes and closes, so every
	// acknowledged event is on disk before exit.
	s.stopping.Store(true)
	s.logf("draining: waiting up to %s for in-flight work", s.cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(drainCtx)
	drainErr := s.disp.Drain(drainCtx)
	<-served // http.ErrServerClosed once Shutdown completes
	stopWatch()
	walErr := s.closeWAL()
	if runErr != nil {
		return runErr
	}
	if shutdownErr != nil {
		return fmt.Errorf("serve: drain: %w", shutdownErr)
	}
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	if walErr != nil {
		return fmt.Errorf("serve: wal close: %w", walErr)
	}
	s.logf("drained cleanly")
	return nil
}

// closeWAL flushes and closes the WAL (idempotent, nil-safe). Run calls it
// after the dispatcher drains; servers mounted via Handler should call
// Drain then closeWAL's exported twin CloseWAL themselves.
func (s *Server) closeWAL() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Close(); err != nil {
		s.logf("wal close: %v", err)
		return err
	}
	return nil
}

// CloseWAL flushes and closes the write-ahead log, for servers mounted via
// Handler (Run's drain path does this automatically). Call it only after
// Drain: a closed WAL sheds every subsequent ingest.
func (s *Server) CloseWAL() error { return s.closeWAL() }

func (s *Server) routes() {
	s.mux.HandleFunc("/v1/predict/next", s.serveV1("next", s.preparePredict(false)))
	s.mux.HandleFunc("/v1/predict/counts", s.serveV1("counts", s.preparePredict(true)))
	s.mux.HandleFunc("/v1/influence", s.serveV1("influence", s.prepareInfluence))
	s.mux.HandleFunc("/v1/ingest", s.serveV1("ingest", s.prepareIngest))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	s.mux.HandleFunc("/admin/refit", s.handleRefit)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// modelVersionHeader carries the snapshot identity a response was computed
// against. It is a header, not a body field, so fixed-seed response bodies
// stay bit-identical across reloads of the same model file.
const modelVersionHeader = "X-Chassis-Model-Version"

// v1Work is what one /v1 endpoint hands the shared request path once it
// has decoded and validated its body against the pinned snapshot.
type v1Work struct {
	// timeoutMS is the request's timeout_ms; it can tighten the server's
	// RequestTimeout but not extend it.
	timeoutMS int
	// run is the work the dispatcher executes; it returns the response body.
	run func(ctx context.Context, workers int) ([]byte, error)
	// after, when non-nil, runs on the handler goroutine once run succeeded
	// (ingest's durability wait) and can still fail the request.
	after func() error
}

// v1Prepare decodes and validates one /v1 request against snap.
type v1Prepare func(r *http.Request, snap *ModelSnapshot) (*v1Work, error)

// serveV1 is the one request path of every /v1 endpoint. It counts the
// request, checks the method, pins the model snapshot, lets the endpoint
// prepare its work, runs that work on the dispatcher under the request's
// deadline, and writes the body with the snapshot's version header. Every
// failure, a panic in the work included, is counted and written as the
// shared error envelope; a panic answers 500 internal for that one request.
func (s *Server) serveV1(name string, prepare v1Prepare) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.Counter("serve." + name + ".requests").Inc()
		snap, body, err := s.runV1(r, name, prepare)
		if err != nil {
			s.metrics.Counter("serve." + name + ".errors").Inc()
			writeError(w, err)
			return
		}
		s.metrics.Timer("serve." + name + ".latency").Add(time.Since(start))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(modelVersionHeader, strconv.FormatInt(snap.Version, 10))
		//nolint:errcheck // best-effort write to a client that may be gone
		w.Write(body)
	}
}

// runV1 is serveV1 between counting the request and writing the answer:
// it returns the pinned snapshot and the response body, or the failure.
func (s *Server) runV1(r *http.Request, name string, prepare v1Prepare) (*ModelSnapshot, []byte, error) {
	if r.Method != http.MethodPost {
		return nil, nil, &Error{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
			Message: "use POST"}
	}
	// Pin the model snapshot once: validation, the work and the response
	// header all see exactly this version even if a reload lands mid-request.
	snap := s.reg.Current()
	if snap == nil {
		return nil, nil, ErrNotReady
	}
	work, err := prepare(r, snap)
	if err != nil {
		return nil, nil, err
	}
	timeout := s.cfg.RequestTimeout
	if work.timeoutMS > 0 {
		if t := time.Duration(work.timeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var body []byte
	var werr error
	err = s.disp.Do(ctx, func(ctx context.Context, workers int) {
		defer func() {
			if v := recover(); v != nil {
				werr = fmt.Errorf("%s panicked: %v", name, v)
			}
		}()
		// A deadline that expired while the request sat in the queue
		// costs nothing further.
		if werr = ctx.Err(); werr != nil {
			return
		}
		body, werr = work.run(ctx, workers)
	})
	if err == nil {
		err = werr
	}
	if err == nil && work.after != nil {
		err = work.after()
	}
	return snap, body, err
}

// history resolves what a read request conditions on: the live cascade
// named by cascade_id (its continuation state and a detached copy of its
// tail) or the inline history. A cascade answers 503 replaying until WAL
// recovery completes: its state could still miss acknowledged events.
func (s *Server) history(req *PredictRequest, snap *ModelSnapshot) (*hawkes.ContState, *timeline.Sequence, error) {
	if req.CascadeID == "" {
		hist, err := req.historySequence(snap.M)
		return nil, hist, err
	}
	if s.wal != nil && !s.walRecovered.Load() {
		return nil, nil, ErrReplaying
	}
	return s.store.State(snap.Model, snap.Proc, snap.Version, req.CascadeID, req.Horizon)
}

// preparePredict prepares /v1/predict/counts when counts is set, otherwise
// /v1/predict/next.
func (s *Server) preparePredict(counts bool) v1Prepare {
	return func(r *http.Request, snap *ModelSnapshot) (*v1Work, error) {
		req, err := decodeRequest(r)
		if err != nil {
			return nil, err
		}
		if counts {
			err = req.validateCounts()
		} else {
			err = req.validateNext()
		}
		if err != nil {
			return nil, err
		}
		// A cascade_id's live state IS the cached continuation, extended in
		// place by every append and merely finalized here.
		cascadeSt, hist, err := s.history(req, snap)
		if err != nil {
			return nil, err
		}

		// Fastpath state caching, incrementally: the history's prefix keys
		// classify against the cache as a hit (finalize the cached
		// accumulator at the request horizon), an extend (clone the longest
		// cached prefix and absorb only the suffix), or a miss (build from
		// scratch). The build/extend work runs inside the dispatcher, on
		// the worker budget. All three paths perform the same float ops as
		// an uncached rebuild, so responses are bit-identical with the
		// cache on, off, hit, extended, or missed.
		var keys []string
		var accum *hawkes.StateAccum
		covered := 0
		if s.cache != nil && req.CascadeID == "" && hist.Len() > 0 {
			keys = prefixDigests(hist)
			accum, covered = s.cache.lookup(snap.Version, keys)
		}
		run := func(ctx context.Context, workers int) ([]byte, error) {
			st := cascadeSt
			if len(keys) > 0 {
				if accum != nil && !snap.Proc.UsableAccum(accum) {
					accum, covered = nil, 0 // defense in depth; version purge handles reloads
				}
				if accum == nil {
					accum, covered = snap.Proc.NewStateAccum(), 0
				}
				if accum != nil && covered < hist.Len() {
					if err := accum.AppendAll(snap.Proc, hist.Activities[covered:]); err != nil {
						accum = nil // fall back to predict's own rebuild
					} else {
						s.cache.put(snap.Version, keys[len(keys)-1], accum)
					}
				}
				st = accum.Finalize(hist.Horizon) // nil-safe; pure read
			}
			opts := predict.Options{
				Draws: req.Draws, Seed: req.Seed,
				Workers: workers, Ctx: ctx,
				HistState: st,
			}
			if counts {
				opts.Window = req.Window
				fc, err := predict.Counts(snap.Proc, hist, opts)
				if err != nil {
					return nil, err
				}
				return predict.EncodeCounts(fc)
			}
			opts.Lookahead = req.Lookahead
			n, err := predict.Next(snap.Proc, hist, opts)
			if err != nil {
				return nil, err
			}
			return predict.EncodeNext(n)
		}
		return &v1Work{timeoutMS: req.TimeoutMS, run: run}, nil
	}
}

// prepareInfluence prepares /v1/influence: the participant-level influence
// decomposition of the request history under the served model's posterior
// parent distributions (predict.Influence). The request body is the shared
// PredictRequest schema; lookahead/window/draws/seed are ignored — the
// decomposition is a deterministic expectation, not a Monte-Carlo forecast,
// so equal (model, history) pairs always produce identical bytes.
func (s *Server) prepareInfluence(r *http.Request, snap *ModelSnapshot) (*v1Work, error) {
	req, err := decodeRequest(r)
	if err != nil {
		return nil, err
	}
	if err := req.validateInfluence(); err != nil {
		return nil, err
	}
	_, hist, err := s.history(req, snap)
	if err != nil {
		return nil, err
	}
	run := func(ctx context.Context, workers int) ([]byte, error) {
		scores, err := predict.Influence(snap.Proc, hist, predict.Options{Workers: workers, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		return predict.EncodeInfluence(scores)
	}
	return &v1Work{timeoutMS: req.TimeoutMS, run: run}, nil
}

// healthJSON is the /healthz payload.
type healthJSON struct {
	Status        string  `json:"status"`
	Build         string  `json:"build"`
	ModelVersion  int64   `json:"model_version"`
	ModelSum      string  `json:"model_sum,omitempty"`
	ModelLoadedAt string  `json:"model_loaded_at,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
}

// handleHealthz is liveness: always 200 while the process runs, carrying
// the build identity and the served model version.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{
		Status:        "ok",
		Build:         s.cfg.Buildinfo,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.stopping.Load() || s.disp.Draining(),
	}
	if snap := s.reg.Current(); snap != nil {
		h.ModelVersion = snap.Version
		h.ModelSum = snap.ModelSum
		h.ModelLoadedAt = snap.LoadedAt.UTC().Format(time.RFC3339Nano)
	}
	w.Header().Set("Content-Type", "application/json")
	//nolint:errcheck // health probe writes are best-effort
	json.NewEncoder(w).Encode(h)
}

// handleReadyz is readiness: 200 only when a model is loaded and the
// server is not draining, so load balancers stop routing the moment drain
// begins.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.stopping.Load() || s.disp.Draining() {
		writeError(w, ErrDraining)
		return
	}
	if s.wal != nil && !s.walRecovered.Load() {
		writeError(w, ErrReplaying)
		return
	}
	if s.reg.Current() == nil {
		writeError(w, ErrNotReady)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//nolint:errcheck // health probe writes are best-effort
	w.Write([]byte("ready\n"))
}

// handleMetrics renders the registry in the Prometheus text exposition
// format — the internal/obs snapshot the fit CLIs already report through,
// plus the serve.* server instruments. Memory gauges are refreshed per
// scrape so heap and peak-RSS readings are current.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.CaptureMemory(s.metrics)
	if err := s.metrics.Snapshot().WriteText(w); err != nil {
		s.logf("metrics scrape failed: %v", err)
	}
}

// reloadJSON is the /admin/reload response.
type reloadJSON struct {
	Reloaded bool   `json:"reloaded"`
	Version  int64  `json:"version"`
	ModelSum string `json:"model_sum"`
}

// handleReload triggers a registry reload. POST-only; by default the
// reload is forced (the operator said reload), ?force=0 downgrades to the
// fingerprint check the file watcher uses. A failed reload is a 503 with
// the previous model left serving.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &Error{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
			Message: "use POST"})
		return
	}
	if s.wal != nil && !s.walRecovered.Load() {
		// A reload mid-replay would move the version chain out from under
		// the refit markers still being recomputed.
		writeError(w, ErrReplaying)
		return
	}
	force := r.URL.Query().Get("force") != "0"
	reloaded, snap, err := s.reg.Reload(force)
	if err != nil {
		s.logf("admin reload failed (previous model keeps serving): %v", err)
		writeError(w, &Error{Status: http.StatusServiceUnavailable, Code: "reload_failed",
			Message: err.Error()})
		return
	}
	if reloaded {
		s.logf("model reloaded: version %d (%s)", snap.Version, snap.ModelSum[:12])
	}
	w.Header().Set("Content-Type", "application/json")
	//nolint:errcheck // best-effort write
	json.NewEncoder(w).Encode(reloadJSON{Reloaded: reloaded, Version: snap.Version, ModelSum: snap.ModelSum})
}
