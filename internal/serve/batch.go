package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"chassis/internal/obs"
	"chassis/internal/parallel"
)

// BatchConfig tunes the micro-batching dispatcher. The zero value selects
// the documented defaults.
type BatchConfig struct {
	// MaxBatch caps how many queued requests one batch executes together
	// (default 16; 1 disables coalescing).
	MaxBatch int
	// QueueDepth bounds how many requests may wait for a batch slot
	// (default 64). A full queue is a typed 429 (ErrQueueFull), never an
	// unbounded pile-up.
	QueueDepth int
	// Window is how long the collector waits for more requests to join a
	// batch after the first arrives (default 2ms). Bounded added latency
	// in exchange for executing concurrent requests on one pool pass.
	Window time.Duration
	// Workers caps the goroutines a batch fans out over (<= 0 uses
	// GOMAXPROCS, via the shared internal/parallel pool). A single-request
	// batch hands the whole budget to that request's Monte-Carlo draws;
	// multi-request batches parallelize across requests instead. Either
	// way results are bit-identical — predict is deterministic at every
	// worker count.
	Workers int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	c.Workers = parallel.Workers(c.Workers)
	return c
}

// job is one queued unit of prediction work. done is closed exactly once,
// after fn returned (or the job was abandoned to a panic captured by the
// pool), so Do can block on completion without polling.
type job struct {
	ctx  context.Context
	fn   func(ctx context.Context, workers int)
	done chan struct{}
}

// Dispatcher coalesces concurrent prediction requests into micro-batches
// executed on the shared worker pool. One collector goroutine drains a
// bounded queue: the first request opens a batch, the collector waits up
// to Window for up to MaxBatch-1 more, then the whole batch runs in one
// parallel.Do pass. Per-request deadlines ride along untouched — each
// request's context reaches its prediction, which honors it at draw
// boundaries — so one slow request cannot extend another's deadline.
type Dispatcher struct {
	cfg     BatchConfig
	metrics *obs.Metrics

	queue    chan *job
	quit     chan struct{}
	stopOnce sync.Once
	// admit makes Do's draining check and its pending.Add one step that
	// Drain's flip cannot split: an accepted job is always counted before
	// Drain starts waiting for pending to reach zero.
	admit    sync.RWMutex
	draining atomic.Bool
	pending  sync.WaitGroup // accepted-but-unfinished jobs
	done     chan struct{}  // collector exited
}

// NewDispatcher starts a dispatcher (and its collector goroutine).
// metrics may be nil.
func NewDispatcher(cfg BatchConfig, metrics *obs.Metrics) *Dispatcher {
	d := &Dispatcher{
		cfg:     cfg.withDefaults(),
		metrics: metrics,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	d.queue = make(chan *job, d.cfg.QueueDepth)
	go d.collect()
	return d
}

// Do submits fn and blocks until it has executed. fn receives the
// request's own ctx (checked again when the batch runs, so a deadline that
// expired while queued costs nothing) and the worker budget its batch
// granted it. Do itself returns only dispatch failures — ErrDraining once
// drain has begun, ErrQueueFull when the bounded queue is at depth;
// prediction results and errors travel through fn's closure.
func (d *Dispatcher) Do(ctx context.Context, fn func(ctx context.Context, workers int)) error {
	d.admit.RLock()
	if d.draining.Load() {
		d.admit.RUnlock()
		d.metrics.Counter("serve.dispatch.rejected_draining").Inc()
		return ErrDraining
	}
	d.pending.Add(1)
	d.admit.RUnlock()
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	select {
	case d.queue <- j:
	default:
		d.pending.Done()
		d.metrics.Counter("serve.dispatch.rejected_full").Inc()
		return ErrQueueFull
	}
	<-j.done
	return nil
}

// Drain begins graceful shutdown: new Do calls fail with ErrDraining
// immediately, every already-accepted job still executes, and Drain
// returns once the queue and all in-flight batches have flushed — or with
// ctx's error if the deadline expires first (the collector keeps flushing
// regardless). Idempotent.
func (d *Dispatcher) Drain(ctx context.Context) error {
	d.admit.Lock()
	d.draining.Store(true)
	d.admit.Unlock()
	flushed := make(chan struct{})
	go func() {
		d.pending.Wait()
		d.stopOnce.Do(func() { close(d.quit) })
		close(flushed)
	}()
	select {
	case <-flushed:
		<-d.done // collector observed quit and exited
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether graceful drain has begun.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }

// collect is the single collector goroutine: open a batch on the first
// queued job, top it up for at most Window, execute, repeat. After quit
// (which Drain closes only once pending hits zero) any stragglers are
// flushed and the goroutine exits.
func (d *Dispatcher) collect() {
	defer close(d.done)
	for {
		var first *job
		select {
		case first = <-d.queue:
		case <-d.quit:
			for {
				select {
				case j := <-d.queue:
					d.run([]*job{j})
				default:
					return
				}
			}
		}
		batch := append(make([]*job, 0, d.cfg.MaxBatch), first)
		if d.cfg.MaxBatch > 1 {
			timer := time.NewTimer(d.cfg.Window)
		gather:
			for len(batch) < d.cfg.MaxBatch {
				select {
				case j := <-d.queue:
					batch = append(batch, j)
				case <-timer.C:
					break gather
				}
			}
			timer.Stop()
		}
		d.run(batch)
	}
}

// run executes one batch on the pool. A lone request gets the whole worker
// budget for its own Monte-Carlo fan-out; a coalesced batch parallelizes
// across requests (each prediction then simulating serially), which is the
// better throughput trade and — thanks to predict's determinism at any
// worker count — changes no bytes of any response.
func (d *Dispatcher) run(batch []*job) {
	workersPer := 1
	if len(batch) == 1 {
		workersPer = d.cfg.Workers
	}
	d.metrics.Counter("serve.dispatch.batches").Inc()
	d.metrics.Counter("serve.dispatch.batched_requests").Add(int64(len(batch)))
	d.metrics.Gauge("serve.dispatch.last_batch_size").Set(float64(len(batch)))
	//nolint:errcheck // fn never returns an error, and panics are contained
	// per job below so one bad request cannot abort its batchmates.
	parallel.Do(d.cfg.Workers, len(batch), func(i int) error {
		j := batch[i]
		defer func() {
			// A panicking fn must not tear down the batch: recover here so
			// the pool never sees it (which would stop it claiming the
			// remaining jobs), and close done regardless so the submitter
			// and Drain cannot hang. The HTTP layer installs its own
			// recover to turn the panic into a 500 for that one request.
			if v := recover(); v != nil {
				d.metrics.Counter("serve.dispatch.panics").Inc()
			}
			close(j.done)
			d.pending.Done()
		}()
		j.fn(j.ctx, workersPer)
		return nil
	})
}
