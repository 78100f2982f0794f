package main

import (
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// call is one scheduled request.
type call struct {
	path string
	body []byte
}

// outcome is what happened to one scheduled request. Times are offsets from
// the phase start; latency runs from the scheduled send, so time spent
// queued behind earlier requests counts.
type outcome struct {
	due, late, done float64 // seconds
	status          int     // 0: transport error, or dropped unsent in a probe
	body            []byte  // kept only when the phase asks for it
}

func (o outcome) latency() float64 { return o.done - o.due }

// loop drives one open-loop phase: n requests due at a fixed rate, sent over
// at most conns connections. Arrivals that find every connection busy wait
// in a client-side FIFO, so a slow server shows up as latency. In a rate
// probe, a request still unsent once it is over the limit is dropped as a
// miss, which bounds how long an overloaded probe takes to end.
type loop struct {
	client *http.Client
	base   string
	conns  int
	limit  float64 // seconds
	// sendFn, when set, sends request i in place of a plain POST of c.
	sendFn func(i int, c call) (int, []byte, error)
}

// maxConns is the connection budget: one per CPU.
func maxConns() int { return runtime.NumCPU() }

// run executes one phase. next(i) gives request i; keep(i) says whether to
// keep its response body. With drop set, requests already over the limit
// when a connection frees up are not sent.
func (l *loop) run(rate float64, n int, drop bool, next func(i int) call, keep func(i int) bool) []outcome {
	out := make([]outcome, n)
	queue := make(chan int, n) // sized to every arrival, so the schedule never blocks
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				if drop && time.Since(t0).Seconds()-o.due > l.limit {
					o.done = time.Since(t0).Seconds()
					continue
				}
				c := next(i)
				var status int
				var body []byte
				var err error
				if l.sendFn != nil {
					status, body, err = l.sendFn(i, c)
				} else {
					status, body, err = post(l.client, l.base+c.path, c.body)
				}
				o.done = time.Since(t0).Seconds()
				if err == nil {
					o.status = status
				}
				if keep != nil && keep(i) {
					o.body = body
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := float64(i) / rate
		out[i].due = due
		if d := time.Until(t0.Add(time.Duration(due * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		out[i].late = time.Since(t0).Seconds() - due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// lateP99 is the nearest-rank p99 of how late the generator handed the
// outcomes' requests to the connections, in milliseconds: the client's own
// delay, which latency from the scheduled send would otherwise blame on the
// server.
func lateP99(outs []outcome) float64 {
	late := make([]float64, len(outs))
	for i, o := range outs {
		late[i] = 1000 * o.late
	}
	return nearestRank(sortedCopy(late), 99)
}

// onTime is the share of outcomes that succeeded within the limit.
func onTime(outs []outcome, limit float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	ok := 0
	for _, o := range outs {
		if o.status == http.StatusOK && o.latency() <= limit {
			ok++
		}
	}
	return float64(ok) / float64(len(outs))
}

// passShare is the share of due requests that must succeed within the limit
// for a rate to count as sustained.
const passShare = 0.99

// rateSearch finds the highest sustained rate. probe(r) returns the on-time
// share at offered rate r; base is a rate already measured, with share
// fBase. A ladder steps geometrically by factor away from base until it has
// one passing and one failing rung, probing a failing rung once more so one
// stall on a shared machine (a slow fsync, a descheduled server) does not
// end the climb early. A staircase of stairSteps single probes then starts
// inside that bracket and never drops below its passing rung. It steps up
// after a pass and down after a failure, halves its step in log terms at
// each reversal, down to a sixteenth of the bracket, and doubles it after
// two moves the same way, up to a quarter. On a shared machine the server's capacity dips for seconds
// at a time, and every probe in a dip fails; a bisection that commits to the
// lower half on such a failure never returns, while the staircase climbs
// back once the dip is over. The result is the highest rate any probe
// sustained, moved toward the lowest failing rate above it by where the
// straight line through their two shares crosses passShare, so it moves with
// what was measured instead of snapping to a probed rate.
func rateSearch(base, fBase, factor float64, maxSteps int, probe func(r float64) float64) (rate float64, probes int) {
	shares := map[float64]float64{base: fBase} // best share seen per probed rate
	measure := func(r float64, retry bool) bool {
		f := probe(r)
		probes++
		if f < passShare && retry {
			f = math.Max(f, probe(r))
			probes++
		}
		shares[r] = math.Max(shares[r], f)
		return f >= passShare
	}
	var lo, hi float64
	if fBase >= passShare {
		lo = base
	} else {
		hi = base
	}
	for i := 0; i < maxSteps && (lo == 0 || hi == 0); i++ {
		r := lo * factor
		if lo == 0 {
			r = hi / factor
		}
		if measure(r, true) {
			lo = r
		} else {
			hi = r
		}
	}
	switch {
	case hi == 0:
		return lo, probes // never saturated within the ladder
	case lo == 0:
		return hi * shares[hi], probes // never sustained: the on-time rate at the lowest probe
	}
	span, bottom := math.Log(hi/lo), lo
	r, step := math.Sqrt(lo*hi), span/4
	last := true
	for i := 0; i < stairSteps; i++ {
		ok := measure(r, false)
		switch {
		case i > 0 && ok != last:
			step = math.Max(step/2, span/16)
		case i > 0:
			step = math.Min(step*2, span/4)
		}
		last = ok
		if ok {
			r *= math.Exp(step)
		} else {
			r = math.Max(r/math.Exp(step), bottom)
		}
	}
	lo, hi = 0, math.Inf(1)
	for r, f := range shares {
		if f >= passShare && r > lo {
			lo = r
		}
	}
	for r, f := range shares {
		if f < passShare && r > lo && r < hi {
			hi = r
		}
	}
	if math.IsInf(hi, 1) {
		return lo, probes // the staircase ended above every failing rate
	}
	fLo, fHi := shares[lo], shares[hi]
	return lo + (hi-lo)*(fLo-passShare)/(fLo-fHi), probes
}
