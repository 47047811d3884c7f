package artifact

import (
	"sort"
	"sync"
	"sync/atomic"
)

const cacheShards = 16

// Cache is a sharded, unbounded once-map with singleflight semantics: the
// first caller of Do for a key runs the compute, every concurrent
// duplicate blocks on it and shares the value. Entries are never evicted
// or overwritten, so computes must be pure functions of their key.
type Cache[V any] struct {
	shards [cacheShards]cacheShard[V]
}

type cacheShard[V any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	once sync.Once
	val  V
	done atomic.Bool
}

// NewCache builds an empty cache.
func NewCache[V any]() *Cache[V] {
	c := &Cache[V]{}
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
// once: the first caller runs compute, concurrent callers for the same
// key block until it finishes and share the result. The second return
// reports whether the key was already present (a hit).
func (c *Cache[V]) Do(key string, compute func() V) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, hit := s.m[key]
	if !hit {
		e = &cacheEntry[V]{}
		s.m[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.val = compute()
		e.done.Store(true)
	})
	return e.val, hit
}

// Get returns the value for key if present and fully computed.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok || !e.done.Load() {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Len returns the number of entries.
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

// SortedKeys returns every key in lexicographic order.
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
