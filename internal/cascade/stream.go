package cascade

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"chassis/internal/rng"
	"chassis/internal/stance"
	"chassis/internal/timeline"
)

// Streaming generation: the same conformity-modulated Hawkes family as
// Generate, built by the exact cluster (branching) construction instead of
// intensity thinning, so a paper-scale corpus — hundreds of thousands of
// activities over ~10⁵ users — streams out in chronological order with
// bounded memory and no dense M×M influence matrix ever materializing.
//
// The construction exploits the cluster representation of a linear Hawkes
// process: immigrants arrive as a Poisson process with rate Σᵢ μᵢ, and each
// event by user j independently spawns Poisson(aᵢⱼ) offspring for every
// follower i, at delays drawn from the normalized triggering kernel. Only
// the sparse follower lists and their conformity-modulated weights are kept
// (O(edges)); the frontier of not-yet-emitted offspring lives in a priority
// queue whose peak size is reported in StreamStats so tests can pin the
// memory bound.
//
// Two features of Generate are out of scope for the streaming path and
// rejected up front: the nonlinear ("exp" link) diffusion, which has no
// cluster representation, and the dynamic conformity ramp of
// simulateDynamic, which would require unbounded per-pair history. The
// streamed family is the static-excitation linear process.

// StreamStats summarizes one streamed generation run.
type StreamStats struct {
	// Events is how many activities were emitted.
	Events int
	// Immigrants is how many of them were exogenous posts.
	Immigrants int
	// PeakPending is the high-water mark of the not-yet-emitted offspring
	// queue — the generator's only corpus-shaped state.
	PeakPending int
	// Truncated reports that MaxEvents fired before the horizon drained.
	Truncated bool
}

// pendingEvent is one simulated-but-not-yet-emitted activity. Offspring
// carry their parent's emitted global index plus the two pieces of cascade
// state dressing needs: the topic and the parent's expressed polarity.
type pendingEvent struct {
	time   float64
	seq    int64 // insertion order; tie-break so heap order is deterministic
	user   int32
	parent int32 // global index of the emitted parent; -1 for immigrants
	topic  int32
	parPol float64 // parent's expressed (latent) polarity
}

// eventHeap orders pending events by (time, insertion seq).
type eventHeap []pendingEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(pendingEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// sampleDelay draws an offspring delay from the normalized triggering
// kernel by inverse CDF; all three parametric kinds invert in closed form
// (the CDFs are the kernel.Kernel Integral forms with unit mass).
func sampleDelay(r *rng.RNG, kind string, rate float64) float64 {
	switch kind {
	case "rayleigh":
		// F(t) = 1 − exp(−t²/2σ²), σ = 1/rate.
		sigma := 1 / rate
		return sigma * math.Sqrt(-2*math.Log(1-r.Float64()))
	case "powerlaw":
		// F(t) = 1 − (1+t/c)^{1−p}, c = 1/rate, p = 2.5 (cf. buildKernel).
		cutoff := 1 / rate
		return cutoff * (math.Pow(1-r.Float64(), 1/(1-2.5)) - 1)
	default:
		return r.Exp(rate)
	}
}

// GenerateStream simulates cfg's corpus by the cluster construction and
// hands activities to emit in global chronological order, in batches of at
// most batchSize (default 4096). Activity IDs and parent references are
// global emission indices, so batches feed colstore.Writer.Append directly.
// The emitted corpus is deterministic in cfg.Seed and independent of
// batchSize. Ground-truth latent traits are not returned — at paper scale
// they are the caller's to regenerate from the seed if needed.
func GenerateStream(cfg Config, batchSize int, emit func([]timeline.Activity) error) (*StreamStats, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, errors.New("cascade: GenerateStream needs an emit callback")
	}
	if cfg.LinkName != "linear" {
		return nil, fmt.Errorf("cascade: streaming generation supports only the linear link (no cluster representation exists for %q)", cfg.LinkName)
	}
	if batchSize <= 0 {
		batchSize = 4096
	}

	r := rng.New(cfg.Seed)
	g, err := buildGraph(r.Split(1), cfg)
	if err != nil {
		return nil, err
	}

	// Latent traits — same stream and draw order as Generate.
	rTraits := r.Split(2)
	opinions := make([][]float64, cfg.M)
	trait := make([]float64, cfg.M)
	for u := 0; u < cfg.M; u++ {
		opinions[u] = make([]float64, cfg.Topics)
		for k := range opinions[u] {
			opinions[u][k] = rTraits.Uniform(-1, 1)
		}
		trait[u] = rTraits.Float64()
	}

	// Sparse excitation: per-source follower targets with conformity-
	// modulated weights, rescaled so the mean nonzero column mass hits
	// TargetBranching with the same per-column subcriticality cap as the
	// dense path. This is rescaleToBranching on a column-sparse layout.
	targets := make([][]int, cfg.M)
	weights := make([][]float64, cfg.M)
	var total float64
	var nonzero int
	for j := 0; j < cfg.M; j++ {
		fs := g.Followers(j)
		if len(fs) == 0 {
			continue
		}
		ws := make([]float64, len(fs))
		var col float64
		for k, i := range fs {
			sim := opinionSimilarity(opinions[i], opinions[j])
			ws[k] = (1 - cfg.ConformityWeight) + cfg.ConformityWeight*trait[i]*sim
			col += ws[k]
		}
		targets[j], weights[j] = fs, ws
		total += col
		nonzero++
	}
	if nonzero > 0 && total > 0 {
		scale := cfg.TargetBranching / (total / float64(nonzero))
		for j := range weights {
			var col float64
			for _, w := range weights[j] {
				col += w
			}
			s := scale
			if col*scale > streamColCap {
				s = streamColCap / col
			}
			for k := range weights[j] {
				weights[j][k] *= s
			}
		}
	}

	// Exogenous rates and the immigrant-assignment cumulative table.
	rMu := r.Split(3)
	mu := make([]float64, cfg.M)
	cum := make([]float64, cfg.M)
	var lambda float64
	for i := range mu {
		mu[i] = rMu.Uniform(cfg.BaseRateLo, cfg.BaseRateHi)
		lambda += mu[i]
		cum[i] = lambda
	}

	rSim := r.Split(4)
	rImm, rOff := rSim.Split(1), rSim.Split(2)
	rDress := r.Split(5)
	analyzer := stance.NewAnalyzer()

	nextImmigrant := func(after float64) (float64, int32) {
		t := after + rImm.Exp(lambda)
		u := sort.SearchFloat64s(cum, rImm.Float64()*lambda)
		if u >= cfg.M {
			u = cfg.M - 1
		}
		return t, int32(u)
	}

	var (
		pend       eventHeap
		seqNo      int64
		stats      StreamStats
		batch      = make([]timeline.Activity, 0, batchSize)
		immT, immU = nextImmigrant(0)
		immOK      = immT <= cfg.Horizon
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := emit(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}

	for stats.Events < cfg.MaxEvents {
		var ev pendingEvent
		switch {
		case immOK && (len(pend) == 0 || immT <= pend[0].time):
			ev = pendingEvent{time: immT, user: immU, parent: -1}
			stats.Immigrants++
			immT, immU = nextImmigrant(immT)
			immOK = immT <= cfg.Horizon
		case len(pend) > 0:
			ev = heap.Pop(&pend).(pendingEvent)
		default:
			// Horizon drained: no pending offspring, no immigrants left.
			if err := flush(); err != nil {
				return nil, err
			}
			return &stats, nil
		}

		// Dress and emit — the same per-activity logic as dressActivities,
		// with cascade state (topic, parent's expressed polarity) carried on
		// the pending event instead of corpus-length arrays.
		gIdx := stats.Events
		act := timeline.Activity{
			ID:   timeline.ActivityID(gIdx),
			User: timeline.UserID(ev.user),
			Time: ev.time,
		}
		var expressed float64
		var topic int32
		if ev.parent < 0 {
			topic = int32(rDress.Intn(cfg.Topics))
			act.Parent = timeline.NoParent
			act.Kind = timeline.Post
			expressed = clampPolarity(opinions[ev.user][topic] + rDress.Normal(0, cfg.PolarityNoise))
			act.Text = renderText(rDress, expressed, true)
		} else {
			topic = ev.topic
			act.Parent = timeline.ActivityID(ev.parent)
			c := trait[ev.user]
			expressed = clampPolarity((1-c)*opinions[ev.user][topic] + c*ev.parPol + rDress.Normal(0, cfg.PolarityNoise))
			if rDress.Bernoulli(cfg.LikeFraction) {
				if expressed >= 0 {
					act.Kind = timeline.Like
				} else {
					act.Kind = timeline.Angry
				}
			} else {
				switch rDress.Intn(3) {
				case 0:
					act.Kind = timeline.Retweet
				case 1:
					act.Kind = timeline.Comment
				default:
					act.Kind = timeline.Reply
				}
				act.Text = renderText(rDress, expressed, false)
			}
		}
		act.Topic = int(topic)
		act.Polarity = analyzer.ActivityPolarity(act)
		batch = append(batch, act)
		stats.Events++
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}

		// Offspring: Poisson(aᵢⱼ) children per follower, delays from the
		// normalized kernel; children past the horizon are dropped (their
		// mass is the boundary truncation every finite-window corpus has).
		u := int(ev.user)
		for k, i := range targets[u] {
			for n := rOff.Poisson(weights[u][k]); n > 0; n-- {
				t := ev.time + sampleDelay(rOff, cfg.KernelKind, cfg.KernelRate)
				if t > cfg.Horizon {
					continue
				}
				seqNo++
				heap.Push(&pend, pendingEvent{
					time: t, seq: seqNo, user: int32(i),
					parent: int32(gIdx), topic: topic, parPol: expressed,
				})
			}
		}
		if len(pend) > stats.PeakPending {
			stats.PeakPending = len(pend)
		}
	}
	stats.Truncated = true
	if err := flush(); err != nil {
		return nil, err
	}
	return &stats, nil
}

// streamColCap mirrors the dense path's per-column subcriticality cap; the
// streaming family has no dynamic ramp, so no extra headroom is budgeted.
const streamColCap = 0.92
