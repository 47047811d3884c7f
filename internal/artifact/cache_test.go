package artifact

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Singleflight: concurrent Do calls for one key run compute exactly once
// and all share the value.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache[int]()
	var computes, hits atomic.Int64
	var wg sync.WaitGroup
	vals := make([]int, 32)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var hit bool
			vals[i], hit = c.Do("k", func() int {
				computes.Add(1)
				return 42
			})
			if hit {
				hits.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if n := hits.Load(); n != 31 {
		t.Fatalf("hits = %d, want 31", n)
	}
}

// Concurrent Do across many keys under -race: every key stays resident.
func TestCacheConcurrentRace(t *testing.T) {
	c := NewCache[int]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%100)
				c.Do(k, func() int { return i })
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != 100 {
		t.Fatalf("cache holds %d keys after concurrent fill, want 100", n)
	}
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("key-%d not resident", i)
		}
	}
}
