// Golden testdata for lockdiscipline's hot-lock tracer rule: no span
// or recorder traffic inside Broker.mu / Cache.mu critical sections.
// The field names match the production lock-rank table.
package readpath

import (
	"sync"

	"repro/internal/obs"
)

type Broker struct {
	mu   sync.Mutex
	subs int
}

type Cache struct {
	mu      sync.Mutex
	entries map[string]string
}

const spanCacheLookup = "cache_lookup"

// GoodBracketed starts and ends the span outside the critical section
// — the production shape.
func (c *Cache) GoodBracketed(key string) (string, bool) {
	_, sp := obs.StartSpan(nil, spanCacheLookup)
	c.mu.Lock()
	v, ok := c.entries[key]
	c.mu.Unlock()
	sp.SetAttr("hit", "true")
	sp.End()
	return v, ok
}

// BadStartUnderLock opens a span while holding the cache lock.
func (c *Cache) BadStartUnderLock(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, sp := obs.StartSpan(nil, spanCacheLookup) // want `span recorder call \(StartSpan\) while holding hot lock c\.mu`
	v, ok := c.entries[key]
	sp.End() // want `span recorder call \(End\) while holding hot lock c\.mu`
	return v, ok
}

// BadForceUnderLock forces a trace while holding the broker lock.
func (b *Broker) BadForceUnderLock() {
	b.mu.Lock()
	_, sp := obs.ForceSpan(nil, "deliver") // want `span recorder call \(ForceSpan\) while holding hot lock b\.mu`
	b.subs++
	sp.End() // want `span recorder call \(End\) while holding hot lock b\.mu`
	b.mu.Unlock()
}

// BadRecorderRead queries the recorder's views under the broker lock.
func (b *Broker) BadRecorderRead(r *obs.Recorder) []any {
	b.mu.Lock()
	defer b.mu.Unlock()
	return r.Recent(10) // want `span recorder call \(Recent\) while holding hot lock b\.mu`
}

// GoodDeferredEnd: the deferred End runs at function exit, outside the
// unlocked-by-then region.
func (c *Cache) GoodDeferredEnd(key string) string {
	_, sp := obs.StartSpan(nil, spanCacheLookup)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// GoodStageBracketed times the locked lookup with a stage opened and
// ended outside the critical section.
func (c *Cache) GoodStageBracketed(key string, h *obs.Histogram) string {
	_, st := obs.Stage(nil, spanCacheLookup, h)
	c.mu.Lock()
	v := c.entries[key]
	c.mu.Unlock()
	st.End(nil)
	return v
}

// BadStageUnderLock opens and ends a stage while holding the cache lock.
func (c *Cache) BadStageUnderLock(key string, h *obs.Histogram) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st := obs.Stage(nil, spanCacheLookup, h) // want `span recorder call \(Stage\) while holding hot lock c\.mu`
	v := c.entries[key]
	st.End(nil) // want `span recorder call \(End\) while holding hot lock c\.mu`
	return v
}
