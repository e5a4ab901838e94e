package server

import (
	"container/list"
	"sync"

	"viewjoin"
	"viewjoin/internal/obs"
)

// planKey identifies one cached plan: a tenant, a document, the canonical
// query text, the engine, and the canonical (sorted, ";"-joined) view-name
// set. Query and view names are canonical pattern renderings, so two
// requests that differ only in whitespace or view order share a plan; the
// tenant component keeps plans private to their registry even when two
// tenants register identically named documents.
type planKey struct {
	tenant string
	doc    string
	query  string
	engine viewjoin.Engine
	views  string
}

// planCache is a bounded LRU of prepared plans. PreparedQuery values are
// immutable and safe for concurrent Run (they are always prepared with a
// nil tracer here), so a cached plan can be handed to any number of
// in-flight requests; eviction merely drops the cache's reference.
//
// Every entry carries an obs.Aggregate that accumulates the outcomes of
// all runs of that plan — run count, latency quantiles, page hit/miss
// ratio, jump-refused rate — and a footprint estimate for cache memory
// accounting. The aggregate lives and dies with the entry: evicting a
// plan discards its history, which is the right scope for feedback (a
// re-prepared plan starts observing fresh).
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *planEntry
	items map[planKey]*list.Element

	hits, misses, evictions int64
	footprint               int64 // summed FootprintBytes of resident plans
}

// planEntry is one cached plan. All fields are set before the entry is
// published and immutable afterwards; agg is internally synchronized.
type planEntry struct {
	key       planKey
	plan      *viewjoin.PreparedQuery
	agg       *obs.Aggregate
	footprint int64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), items: make(map[planKey]*list.Element)}
}

// get returns the cached entry for k, promoting it to most recently used.
func (c *planCache) get(k planKey) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry)
}

// put inserts a freshly prepared plan, evicting the least recently used
// entry when over capacity, and returns the resident entry. A concurrent
// put of the same key (two requests racing through the same miss) keeps
// the existing entry, so the racing losers fold their run outcomes into
// the winner's aggregate.
func (c *planCache) put(k planKey, p *viewjoin.PreparedQuery) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*planEntry)
	}
	e := &planEntry{key: k, plan: p, agg: &obs.Aggregate{}, footprint: p.FootprintBytes()}
	c.items[k] = c.ll.PushFront(e)
	c.footprint += e.footprint
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		evicted := el.Value.(*planEntry)
		delete(c.items, evicted.key)
		c.footprint -= evicted.footprint
		c.evictions++
	}
	return e
}

// invalidateDoc removes every cached plan of (tenant, doc), whatever view
// set it binds, returning how many entries were dropped. The update path
// calls it after maintaining a document's views: every plan over the old
// epoch still answers consistently at that epoch, but future requests must
// bind the maintained stores.
func (c *planCache) invalidateDoc(tenant, doc string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*planEntry)
		if e.key.tenant == tenant && e.key.doc == doc {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.footprint -= e.footprint
			c.evictions++
			n++
		}
		el = next
	}
	return n
}

// stats snapshots the cache counters, current size, and the summed
// footprint estimate of resident plans.
func (c *planCache) stats() (hits, misses, evictions int64, size int, footprint int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len(), c.footprint
}

// entries snapshots the resident entries, most recently used first.
func (c *planCache) entries() []*planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*planEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planEntry))
	}
	return out
}
