package serve

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result store: key is the SHA-256 of a
// job's normalized deterministic tuple (JobSpec.CacheKey), value the
// exact result bytes of the run that computed it.  Because every result
// is a pure function of its tuple, a hit is bit-identical to
// re-running the job — the lcmd-smoke CI job and the serve tests assert
// exactly that.  Eviction is LRU by entry count.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	byKey   map[string]*list.Element
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
}

type cacheEntry struct {
	key  string
	body []byte
	// job is the job that computed the entry, for provenance in
	// /cache/stats dumps.
	job string
}

// NewCache creates a cache holding at most maxEntries results.
func NewCache(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{max: maxEntries, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached result for key, counting a hit or miss.  The
// returned bytes are shared — callers must not mutate them.
func (c *Cache) Get(key string) (body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a computed result under its content address, evicting the
// least recently used entry past capacity.
func (c *Cache) Put(key string, body []byte, job string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Deterministic tuple, deterministic bytes: a re-insert can only
		// carry the identical body, so just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, body: body, job: job})
	c.byKey[key] = el
	c.bytes += int64(len(body))
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.byKey, e.key)
		c.bytes -= int64(len(e.body))
		c.evicted++
	}
}

// CacheStats is the wire shape of GET /cache/stats.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Keys lists the resident content addresses (most recent first) with
	// the job that computed each, for cache-stats artifact dumps.
	Keys []CacheKeyInfo `json:"keys,omitempty"`
}

// CacheKeyInfo describes one resident entry.
type CacheKeyInfo struct {
	Key   string `json:"key"`
	Bytes int    `json:"bytes"`
	Job   string `json:"job"`
}

// Stats snapshots the cache counters and resident keys.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries: c.ll.Len(), Bytes: c.bytes,
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		st.Keys = append(st.Keys, CacheKeyInfo{Key: e.key, Bytes: len(e.body), Job: e.job})
	}
	return st
}
