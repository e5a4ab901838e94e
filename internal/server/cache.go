package server

import (
	"container/list"
	"sync"

	"viewjoin"
	"viewjoin/internal/obs"
)

// planKey identifies one cached plan: a document, the canonical query
// text, the engine, and the canonical (sorted, ";"-joined) view-name set.
// Query and view names are canonical pattern renderings, so two requests
// that differ only in whitespace or view order share a plan.
type planKey struct {
	doc    string
	query  string
	engine viewjoin.Engine
	views  string
}

// rawKey is a request exactly as it was spelled: the same plan as some
// planKey, found without parsing the query or the view names. nviews makes
// the ";"-joined view texts unambiguous — no spelling that parses holds a
// ";", and only requests that resolved are ever indexed. A request naming
// no views has no rawKey: what it means changes with AddView.
type rawKey struct {
	doc, query, engine string
	nviews             int
	views              string
}

// maxSpellings and maxSpellingBytes bound what the raw index holds per plan,
// so a client respelling or padding one query forever grows nothing: a
// spelling past either takes the parsing path every time.
const maxSpellings, maxSpellingBytes = 8, 4 << 10

// planCache is a bounded LRU of prepared plans. PreparedQuery values are
// immutable and safe for concurrent Run (they are always prepared with a
// nil tracer here), so a cached plan can be handed to any number of
// in-flight requests; eviction merely drops the cache's reference.
//
// Every entry carries an obs.Aggregate that accumulates the outcomes of
// all runs of that plan — run count, summed counters, latency quantiles,
// jump-refused rate — and a footprint estimate for cache memory
// accounting. The aggregate lives and dies with the entry: evicting a
// plan discards its history, which is the right scope for feedback (a
// re-prepared plan starts observing fresh).
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *planEntry
	items map[planKey]*list.Element
	raw   map[rawKey]*planEntry // spellings of resident plans; dropped with them

	hits, misses, evictions int64
	footprint               int64 // summed FootprintBytes of resident plans
}

// planEntry is one cached plan. All fields but spellings (guarded by the
// cache's lock) are set before the entry is published and immutable
// afterwards; agg is internally synchronized.
type planEntry struct {
	key       planKey
	canon     []string // the view names of key.views, as responses list them
	plan      *viewjoin.PreparedQuery
	cells     [][]byte // cellPrefixes of the plan's query
	agg       *obs.Aggregate
	footprint int64
	spellings []rawKey // its keys in planCache.raw
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), items: make(map[planKey]*list.Element), raw: make(map[rawKey]*planEntry)}
}

// spelled is get for a request spelled rk: a hit, counted and promoted like
// any other, when a request so spelled resolved to a still-resident plan;
// otherwise nil and nothing counted — the caller parses and asks get.
func (c *planCache) spelled(rk rawKey) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.raw[rk]
	if e != nil {
		c.hits++
		c.ll.MoveToFront(c.items[e.key])
	}
	return e
}

// link indexes spelling rk (nviews 0: none) to resident entry e, under c.mu.
func (c *planCache) link(rk rawKey, e *planEntry) {
	if rk.nviews == 0 || c.raw[rk] != nil || len(e.spellings) == maxSpellings ||
		len(rk.query)+len(rk.views) > maxSpellingBytes {
		return
	}
	c.raw[rk] = e
	e.spellings = append(e.spellings, rk)
}

// drop removes el's entry and every spelling indexed to it.
func (c *planCache) drop(el *list.Element) {
	e := c.ll.Remove(el).(*planEntry)
	delete(c.items, e.key)
	for _, rk := range e.spellings {
		delete(c.raw, rk)
	}
	c.footprint -= e.footprint
}

// get returns the cached entry for k, promoting it to most recently used
// and indexing the spelling rk that led to it.
func (c *planCache) get(k planKey, rk rawKey) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*planEntry)
	c.link(rk, e)
	return e
}

// put inserts a freshly prepared plan, evicting the least recently used
// entry when over capacity, and returns the resident entry. A concurrent
// put of the same key (two requests racing through the same miss) keeps
// the existing entry, so the racing losers fold their run outcomes into
// the winner's aggregate.
func (c *planCache) put(k planKey, rk rawKey, canon []string, p *viewjoin.PreparedQuery) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*planEntry)
	}
	e := &planEntry{key: k, canon: canon, plan: p, cells: cellPrefixes(p.Query().Labels()),
		agg: &obs.Aggregate{}, footprint: p.FootprintBytes()}
	c.items[k] = c.ll.PushFront(e)
	c.link(rk, e)
	c.footprint += e.footprint
	for c.ll.Len() > c.cap {
		c.drop(c.ll.Back())
		c.evictions++
	}
	return e
}

// invalidateDoc removes every cached plan of doc, whatever view set it
// binds, returning how many entries were dropped. The update path
// calls it after maintaining a document's views: every plan over the old
// epoch still answers consistently at that epoch, but future requests must
// bind the maintained stores.
func (c *planCache) invalidateDoc(doc string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*planEntry).key.doc == doc {
			c.drop(el)
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
