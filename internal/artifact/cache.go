package artifact

import (
	"sort"
	"sync"
	"sync/atomic"
)

const cacheShards = 16

// Cache is a sharded, memory-bounded once-map with singleflight
// semantics: the first caller of Do for a key runs the compute, every
// concurrent duplicate blocks on it and shares the value. Entries carry
// an approximate byte size (sizeOf plus key and fixed overhead) and a
// last-access epoch; when the total exceeds the byte budget, Trim
// evicts the coldest entries (oldest epoch first, then lexicographic
// key order, so eviction is deterministic for any worker count).
//
// Trim and AdvanceEpoch must only be called from serial sections — a
// stage boundary, a batch fan-in barrier — never concurrently with Do.
// That restriction is what makes hit/miss/evict counters deterministic:
// within an epoch every access stamps the same epoch, so residency
// after a trim depends only on *which* keys each epoch touched (a
// deterministic workload property), not on goroutine timing.
//
// A budget <= 0 disables eviction entirely (unbounded, the zero-cost
// default for callers that want only the singleflight once-map).
type Cache[V any] struct {
	sizeOf func(V) int64
	budget int64

	epoch  atomic.Int64
	used   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
	evicts atomic.Int64

	shards [cacheShards]cacheShard[V]
}

type cacheShard[V any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once  sync.Once
	val   V
	size  int64
	epoch atomic.Int64
	done  atomic.Bool
}

// entryOverhead approximates the fixed per-entry bookkeeping cost.
const entryOverhead = 96

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// NewCache builds a cache with the given byte budget (<= 0 = unbounded)
// and value-size estimator (nil = count only key + fixed overhead).
func NewCache[V any](budget int64, sizeOf func(V) int64) *Cache[V] {
	c := &Cache[V]{sizeOf: sizeOf, budget: budget}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry[V])
	}
	return c
}

func (c *Cache[V]) shard(key string) *cacheShard[V] {
	// FNV-1a.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Do returns the cached value for key, computing it via compute exactly
// once per residency: the first caller runs compute, concurrent callers
// for the same key block until it finishes and share the result. The
// second return reports whether the value was already resident (a hit).
// A key evicted by Trim is recomputed on next access — computes must be
// pure functions of the key for the cache to be transparent.
func (c *Cache[V]) Do(key string, compute func() V) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, hit := s.m[key]
	if !hit {
		e = &cacheEntry[V]{}
		s.m[key] = e
	}
	s.mu.Unlock()
	e.epoch.Store(c.epoch.Load())
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.val = compute()
		size := int64(len(key)) + entryOverhead
		if c.sizeOf != nil {
			size += c.sizeOf(e.val)
		}
		e.size = size
		c.used.Add(size)
		e.done.Store(true)
	})
	return e.val, hit
}

// Get returns the value for key if resident and fully computed.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok || !e.done.Load() {
		var zero V
		return zero, false
	}
	e.epoch.Store(c.epoch.Load())
	return e.val, true
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the approximate resident size.
func (c *Cache[V]) Bytes() int64 { return c.used.Load() }

// SortedKeys returns every resident key in lexicographic order.
func (c *Cache[V]) SortedKeys() []string {
	var keys []string
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.m {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// AdvanceEpoch starts a new recency epoch and then trims. Call from
// serial sections only (stage boundaries); see the type comment.
func (c *Cache[V]) AdvanceEpoch() {
	c.epoch.Add(1)
	c.Trim()
}

// Trim evicts the coldest entries (oldest last-access epoch, ties by
// key) until the resident size fits the budget. No-op when unbounded or
// already within budget. Serial sections only.
func (c *Cache[V]) Trim() {
	if c.budget <= 0 || c.used.Load() <= c.budget {
		return
	}
	type cand struct {
		key   string
		epoch int64
		size  int64
	}
	var cands []cand
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if e.done.Load() { // never evict an in-flight compute
				cands = append(cands, cand{k, e.epoch.Load(), e.size})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].epoch != cands[j].epoch {
			return cands[i].epoch < cands[j].epoch
		}
		return cands[i].key < cands[j].key
	})
	for _, cd := range cands {
		if c.used.Load() <= c.budget {
			break
		}
		s := c.shard(cd.key)
		s.mu.Lock()
		if e, ok := s.m[cd.key]; ok && e.done.Load() {
			delete(s.m, cd.key)
			c.used.Add(-e.size)
			c.evicts.Add(1)
		}
		s.mu.Unlock()
	}
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evicts.Load(),
		Entries:   int64(c.Len()),
		Bytes:     c.used.Load(),
	}
}
