package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chassis/internal/obs"
)

func TestDispatcherRunsSubmittedWork(t *testing.T) {
	d := NewDispatcher(BatchConfig{}, nil)
	defer d.Drain(context.Background()) //nolint:errcheck

	var ran atomic.Int64
	var got int
	err := d.Do(context.Background(), func(ctx context.Context, workers int) {
		ran.Add(1)
		got = workers
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatal("fn did not run")
	}
	// A lone request gets the whole worker budget.
	if got < 1 {
		t.Errorf("singleton batch got %d workers, want >= 1", got)
	}
}

func TestDispatcherQueueFull(t *testing.T) {
	d := NewDispatcher(BatchConfig{MaxBatch: 1, QueueDepth: 1, Workers: 1}, obs.NewMetrics())
	defer d.Drain(context.Background()) //nolint:errcheck

	hold := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup

	// Job A occupies the collector; job B occupies the queue's one slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		//nolint:errcheck
		d.Do(context.Background(), func(context.Context, int) {
			close(running)
			<-hold
		})
	}()
	<-running
	wg.Add(1)
	queued := make(chan struct{})
	go func() {
		defer wg.Done()
		close(queued)
		//nolint:errcheck
		d.Do(context.Background(), func(context.Context, int) {})
	}()
	<-queued
	// Give B's enqueue a moment to land in the buffered channel.
	deadline := time.Now().Add(2 * time.Second)
	for len(d.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job B never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// With the collector busy and the queue full, C is refused immediately.
	err := d.Do(context.Background(), func(context.Context, int) {
		t.Error("overflow job must not run")
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Errorf("ErrQueueFull must carry HTTP 429, got %+v", apiErr)
	}

	close(hold)
	wg.Wait()
}

func TestDispatcherDrainRejectsNewAndFlushesAccepted(t *testing.T) {
	// Four workers let one batch of all three jobs start every one of them.
	d := NewDispatcher(BatchConfig{MaxBatch: 4, Workers: 4}, nil)

	// Queue the three behind a held job and drain while they still sit in
	// the queue: accepted, not yet started.
	release := holdCollector(t, d)
	defer release()
	hold := make(chan struct{})
	var releaseJobs sync.Once
	defer releaseJobs.Do(func() { close(hold) })
	var started, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Do(context.Background(), func(context.Context, int) {
				started.Add(1)
				<-hold
				done.Add(1)
			}); err != nil {
				t.Errorf("accepted Do = %v", err)
			}
		}()
	}
	waitQueued(t, d, 3)

	drained := make(chan error, 1)
	go func() { drained <- d.Drain(context.Background()) }()

	// Drain has begun (or is about to): new submissions are refused.
	deadline := time.Now().Add(2 * time.Second)
	for !d.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Draining never flipped")
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Do(context.Background(), func(context.Context, int) {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Do = %v, want ErrDraining", err)
	}

	// Drain must wait for the queued jobs: the collector still holds the
	// first one, so none of the three has started.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with jobs still queued", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := started.Load(); got != 0 {
		t.Fatalf("%d of 3 queued jobs started behind the held collector", got)
	}
	// Freeing the collector runs the three as one batch; Drain still waits
	// for them to finish...
	release()
	deadline = time.Now().Add(2 * time.Second)
	for started.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 accepted jobs started after drain began", started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with jobs still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	// ...and completes once they do.
	releaseJobs.Do(func() { close(hold) })
	wg.Wait()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete after jobs flushed")
	}
	if got := done.Load(); got != 3 {
		t.Errorf("%d of 3 accepted jobs completed during drain", got)
	}

	// Idempotent.
	if err := d.Drain(context.Background()); err != nil {
		t.Errorf("second Drain = %v", err)
	}
}

// TestDispatcherDrainRacesSubmissions races Do against Drain. Every Do is
// either refused with ErrDraining or runs to completion, and Drain returns
// only after every accepted job ran. A Do counted after Drain began
// waiting would never run (the collector has exited) and would hang here.
// That window is narrow; under -race the detector reports the Add/Wait
// pair behind it on every run.
func TestDispatcherDrainRacesSubmissions(t *testing.T) {
	for round := 0; round < 200; round++ {
		d := NewDispatcher(BatchConfig{MaxBatch: 4, QueueDepth: 256, Workers: 2}, nil)
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		begin := make(chan struct{})
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				for {
					err := d.Do(context.Background(), func(context.Context, int) { ran.Add(1) })
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrDraining):
						return
					case !errors.Is(err, ErrQueueFull):
						t.Errorf("Do = %v", err)
						return
					}
				}
			}()
		}
		close(begin)
		drained := make(chan error, 1)
		go func() { drained <- d.Drain(context.Background()) }()
		submitted := make(chan struct{})
		go func() { wg.Wait(); close(submitted) }()
		select {
		case <-submitted:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a Do accepted across Drain never returned", round)
		}
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("round %d: Drain = %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Drain never returned", round)
		}
		if a, r := accepted.Load(), ran.Load(); a != r {
			t.Fatalf("round %d: %d jobs accepted, %d ran", round, a, r)
		}
	}
}

func TestDispatcherDrainHonorsContext(t *testing.T) {
	d := NewDispatcher(BatchConfig{}, nil)
	hold := make(chan struct{})
	running := make(chan struct{})
	go func() {
		//nolint:errcheck
		d.Do(context.Background(), func(context.Context, int) {
			close(running)
			<-hold
		})
	}()
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := d.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck job = %v, want DeadlineExceeded", err)
	}
	close(hold)
}

// holdCollector parks the collector on one job and returns once that job
// runs, so requests submitted before release can only queue behind it.
// release lets the held job finish and waits for its Do to return; it is
// idempotent, so a test defers it (after any deferred Drain, so it runs
// first) and a failed assertion cannot leave Drain waiting on the held job.
func holdCollector(t *testing.T, d *Dispatcher) (release func()) {
	t.Helper()
	hold, running, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		if err := d.Do(context.Background(), func(context.Context, int) {
			close(running)
			<-hold
		}); err != nil {
			t.Errorf("held Do = %v", err)
		}
	}()
	<-running
	var once sync.Once
	return func() {
		once.Do(func() { close(hold) })
		<-finished
	}
}

// waitQueued waits until n requests sit in the dispatcher's queue.
func waitQueued(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(d.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued behind the held job", len(d.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDispatcherCoalescesConcurrentRequests(t *testing.T) {
	m := obs.NewMetrics()
	d := NewDispatcher(BatchConfig{MaxBatch: 8, Workers: 4}, m)
	defer d.Drain(context.Background()) //nolint:errcheck

	release := holdCollector(t, d)
	defer release()
	const n = 6 // <= MaxBatch: every queued request fits one batch
	workerGrants := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			if err := d.Do(context.Background(), func(_ context.Context, workers int) {
				workerGrants[i] = workers
			}); err != nil {
				t.Errorf("Do[%d] = %v", i, err)
			}
		}()
	}
	waitQueued(t, d, n)
	release()
	wg.Wait()

	// The held job ran alone; the collector then took everything queued.
	if got := m.Counter("serve.dispatch.batches").Value(); got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
	if got := m.Counter("serve.dispatch.batched_requests").Value(); got != n+1 {
		t.Errorf("batched_requests = %d, want %d", got, n+1)
	}
	// Coalesced requests run with a single worker each (results are
	// bit-identical either way; this pins the throughput policy).
	for i, w := range workerGrants {
		if w != 1 {
			t.Errorf("queued request %d ran with workers=%d, want 1", i, w)
		}
	}
}

func TestDispatcherPanicContainment(t *testing.T) {
	m := obs.NewMetrics()
	d := NewDispatcher(BatchConfig{MaxBatch: 4, Workers: 4}, m)
	defer d.Drain(context.Background()) //nolint:errcheck

	// Queue all four behind a held job so they run as one batch.
	release := holdCollector(t, d)
	defer release()
	var ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			err := d.Do(context.Background(), func(context.Context, int) {
				if i == 0 {
					panic("bad request")
				}
				ok.Add(1)
			})
			if err != nil {
				t.Errorf("Do[%d] = %v", i, err)
			}
		}()
	}
	waitQueued(t, d, 4)
	release()
	wg.Wait() // would hang forever if the panic tore down the batch
	if got := ok.Load(); got != 3 {
		t.Errorf("%d of 3 batchmates completed alongside the panic", got)
	}
	if got := m.Counter("serve.dispatch.panics").Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

func TestDispatcherPassesRequestContext(t *testing.T) {
	d := NewDispatcher(BatchConfig{}, nil)
	defer d.Drain(context.Background()) //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the job runs
	var sawCancel bool
	if err := d.Do(ctx, func(ctx context.Context, _ int) {
		sawCancel = ctx.Err() != nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawCancel {
		t.Error("job did not observe its own request context")
	}
}

func TestDispatcherSoak(t *testing.T) {
	d := NewDispatcher(BatchConfig{MaxBatch: 8, QueueDepth: 256, Window: time.Millisecond}, obs.NewMetrics())
	var done atomic.Int64
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := d.Do(context.Background(), func(context.Context, int) { done.Add(1) })
			if err != nil && !errors.Is(err, ErrQueueFull) {
				t.Errorf("Do = %v", err)
			}
			if err != nil {
				done.Add(1) // count rejected so the total tallies
			}
		}()
	}
	wg.Wait()
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.Load() != n {
		t.Errorf("accounted for %d of %d submissions", done.Load(), n)
	}
}
