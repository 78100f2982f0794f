package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"chassis/internal/hawkes"
	"chassis/internal/lru"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// The history-state cache memoizes the exponential continuation state of
// request histories — but incrementally: entries are frozen
// hawkes.StateAccum values (the appendable mid-sweep recursion state), keyed
// by a chained digest of the exact history prefix they cover. A repeat
// request with the identical history is a *hit* (finalize the cached
// accumulator at the request horizon, O(M)); a request whose history extends
// a cached one — the dominant polling pattern, a dashboard re-asking as a
// cascade grows — is an *extend* (clone the longest cached prefix and absorb
// only the suffix, O(suffix · M)); only a genuinely new history is a *miss*
// (full O(history · M) build). Because StateAccum.Append performs the same
// float ops as a full replay, all three paths produce bit-identical states,
// so cached and uncached responses are byte-equal (pinned by tests).
//
// Entries are model-version scoped: a hot-reload bumps the registry
// version, and the first lookup under the new version purges everything —
// state accumulated under old parameters must never prime the new model.
// (Process.UsableAccum would reject a mismatched accumulator anyway; the
// purge keeps the cache from serving dead weight.)

// defaultHistCacheSize is the entry cap when Config.HistoryCache is 0.
const defaultHistCacheSize = 256

// prefixDigests returns one key per history prefix: keys[k] identifies
// events [0, k] (plus the dimension count). The digests chain — each key is
// the running sha256 after absorbing one more event — so computing all n
// keys costs one pass, and a sequence extending another shares its prefix
// keys exactly. The horizon deliberately does not participate: the
// accumulator is horizon-free (Finalize applies the horizon per request), so
// the same cascade queried at different horizons shares one entry. Each
// event contributes a fixed four words (user, time bits, kind, polarity
// bits), so distinct histories cannot collide by framing.
func prefixDigests(seq *timeline.Sequence) []string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(seq.M))
	keys := make([]string, len(seq.Activities))
	for i := range seq.Activities {
		a := &seq.Activities[i]
		word(uint64(a.User))
		word(math.Float64bits(a.Time)) // raw bits: exactness over cleverness
		word(uint64(a.Kind))
		word(math.Float64bits(a.Polarity))
		keys[i] = hex.EncodeToString(h.Sum(nil)) // Sum appends; the running state is untouched
	}
	return keys
}

// histCache is a mutex-guarded LRU of prefix digests → frozen accumulators.
// Stored accumulators are never mutated in place: extension always goes
// through Clone, so a cached pointer is shared read-only by every request
// that hits or extends it.
type histCache struct {
	mu      sync.Mutex
	version int64 // model version the entries were computed under
	lru     *lru.Map[string, *hawkes.StateAccum]

	hits, extends, misses, evictions, purges *obs.Counter
	entries                                  *obs.Gauge
}

// newHistCache builds a cache holding up to capacity accumulators. capacity
// 0 selects the default; negative capacity disables caching (returns nil,
// and all call sites treat a nil cache as a no-op).
func newHistCache(capacity int, m *obs.Metrics) *histCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultHistCacheSize
	}
	c := &histCache{
		hits:      m.Counter("serve.histcache.hits"),
		extends:   m.Counter("serve.histcache.extends"),
		misses:    m.Counter("serve.histcache.misses"),
		evictions: m.Counter("serve.histcache.evictions"),
		purges:    m.Counter("serve.histcache.purges"),
		entries:   m.Gauge("serve.histcache.entries"),
	}
	c.lru = lru.New(capacity, func(string, *hawkes.StateAccum) { c.evictions.Inc() })
	return c
}

// lookup classifies a request's prefix keys against the cache under the
// given model version and returns the best starting accumulator plus the
// number of history events it already covers. Exactly one of three outcomes:
//
//   - hit: keys[len-1] is cached — the shared frozen accumulator is returned
//     with covered == len(keys); the caller only finalizes it (a pure read).
//   - extend: some proper prefix is cached — a Clone is returned (covered <
//     len(keys)); the caller appends the suffix and may re-insert under the
//     full key.
//   - miss: nothing usable — (nil, 0); the caller builds from scratch.
//
// A version change purges every entry first.
func (c *histCache) lookup(version int64, keys []string) (accum *hawkes.StateAccum, covered int) {
	if c == nil || len(keys) == 0 {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeIfStaleLocked(version)
	if accum, ok := c.lru.Get(keys[len(keys)-1]); ok {
		c.hits.Inc()
		return accum, len(keys)
	}
	// Longest proper prefix wins: scan from the deepest candidate down.
	for k := len(keys) - 2; k >= 0; k-- {
		if accum, ok := c.lru.Get(keys[k]); ok {
			c.extends.Inc()
			return accum.Clone(), k + 1
		}
	}
	c.misses.Inc()
	return nil, 0
}

// put inserts (or refreshes) the accumulator for key under the given model
// version, evicting the least recently used entry past the cap. The caller
// freezes the accumulator by inserting it: any further extension must clone.
// Storing a nil accumulator is a no-op (only exponential-bank models have
// appendable state, and a nil would poison every future hit for that key).
func (c *histCache) put(version int64, key string, accum *hawkes.StateAccum) {
	if c == nil || accum == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.purgeIfStaleLocked(version)
	// Concurrent misses on the same key race to insert; both computed the
	// same bit-identical value, so last-write-wins is benign.
	c.lru.Put(key, accum)
	c.entries.Set(float64(c.lru.Len()))
}

// purgeIfStaleLocked drops every entry when the model version moved:
// accumulators encode the old parameters and must not survive a reload.
func (c *histCache) purgeIfStaleLocked(version int64) {
	if c.version == version {
		return
	}
	if c.lru.Len() > 0 {
		c.purges.Inc()
	}
	c.version = version
	c.lru.Clear()
	c.entries.Set(0)
}

// len reports the current entry count (tests).
func (c *histCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
