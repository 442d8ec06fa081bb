package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pxml"
	"repro/internal/xmldb"
)

// Store fan-out timings: run covers the QA service's query path
// (scatter to every shard, merge, re-rank); near the cross-shard spatial
// probe.
var (
	mStoreQuerySeconds = obs.Default().Histogram("neogeo_store_query_seconds",
		"Cross-shard store operation wall time.", nil, "op")
	storeRunSeconds  = mStoreQuerySeconds.With("run")
	storeNearSeconds = mStoreQuerySeconds.With("near")
)

// Span names of the per-shard fan-out legs (bounded constants): in a
// partitioned deployment a traced query shows one child span per
// shard, which is exactly the view a future cross-process fan-out
// needs.
const (
	spanShardRun  = "shard_run"
	spanShardNear = "shard_near"
)

// Store partitions records across N independent xmldb databases. Every
// write is a Batch on one shard: integration picks the shard with
// Integrator.Route (spatially via the GridRouter for located records, by
// entity-key hash otherwise), feedback by the shard encoded in the
// record ID (ShardFor). Reads scatter across all shards in parallel and
// merge.
//
// Record IDs are globally unique: shard i issues IDs i+1, i+1+N,
// i+1+2N, …, so a record's home shard is recoverable from its ID alone
// and point reads never fan out. A record never migrates — placement is
// decided at insert, and a later location update leaves it on its home
// shard (the router cell and the 50 km duplicate-blocking radius are
// coarse enough that this does not split entities in practice).
//
// Integration runs per shard (one integrate.Service per shard, see
// Integrator), never against the Store as a whole.
type Store struct {
	router *GridRouter
	dbs    []*xmldb.DB
	// restoreDrift accumulates placement drift found by restore-time
	// audits, on top of the live per-shard counters (see Drift).
	restoreDrift atomic.Int64
}

// New returns a store of n empty shards (n >= 1), placed by a spatial
// GridRouter over them.
func New(n int) (*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	s := &Store{router: NewGridRouter(n), dbs: make([]*xmldb.DB, n)}
	for i := range s.dbs {
		db := xmldb.New()
		if err := db.SetIDSequence(int64(i+1), int64(n)); err != nil {
			return nil, err
		}
		s.dbs[i] = db
	}
	return s, nil
}

// NumShards returns the partition count.
func (s *Store) NumShards() int { return len(s.dbs) }

// Shard exposes one partition's database (read-mostly: for per-shard
// integration services, benchmarks and tests).
func (s *Store) Shard(i int) *xmldb.DB { return s.dbs[i] }

// Router returns the placement router.
func (s *Store) Router() *GridRouter { return s.router }

// SetClock overrides every shard's timestamp source (tests).
func (s *Store) SetClock(clock func() time.Time) {
	for _, db := range s.dbs {
		db.SetClock(clock)
	}
}

// Versions returns every shard's mutation counter (xmldb.DB.Version) as
// one vector — the read path's invalidation spine. Each element is a
// single atomic load; the call never touches a database lock, so it is
// cheap enough to run on every Ask. Elements are read independently,
// not as one consistent cut: the vector a reader records before a query
// can only under-count concurrent writes, which makes a later
// equality check conservative (a moved version may force a needless
// recompute, never a stale hit).
func (s *Store) Versions() []int64 {
	out := make([]int64, len(s.dbs))
	for i, db := range s.dbs {
		out[i] = db.Version()
	}
	return out
}

// Drift returns the store's placement-drift epoch: how many times a
// record's location has been observed somewhere its home shard's
// routing cell does not cover — location-moving merges and feedback
// corrections in this process (xmldb.DB.LocationDrift) plus drifted
// records found by restore-time audits. While zero, every located
// record lives on the shard its current location routes to, so the
// read path may narrow a spatial query's blast radius to the covering
// shards (GridRouter.CoverShards); once it moves, narrowing is
// permanently disabled — conservative, because a transient drifted
// record may be long deleted, but always sound.
func (s *Store) Drift() int64 {
	d := s.restoreDrift.Load()
	for _, db := range s.dbs {
		d += db.LocationDrift()
	}
	return d
}

// ShardFor returns the home shard index encoded in a record ID.
func (s *Store) ShardFor(id int64) int {
	n := int64(len(s.dbs))
	if n == 1 || id < 1 {
		return 0
	}
	return int((id - 1) % n)
}

// fanOut runs fn once per shard, in parallel when there is more than one.
func (s *Store) fanOut(fn func(i int, db *xmldb.DB)) {
	if len(s.dbs) == 1 {
		fn(0, s.dbs[0])
		return
	}
	var wg sync.WaitGroup
	for i, db := range s.dbs {
		wg.Add(1)
		go func(i int, db *xmldb.DB) {
			defer wg.Done()
			fn(i, db)
		}(i, db)
	}
	wg.Wait()
}

// DocKey derives the routing key of a bare document: the text of its
// first child element that has any — the domain key field for every
// built-in domain, since templates emit the key field first (see
// extract.Template.fieldOrder). It must return the bare field text,
// exactly what Integrator.Route feeds the router, so the restore-time
// drift audit and the integration lanes agree on placement. The read
// path's entity-keyed standing queries match on the same key, so a
// subscription and the router agree about which records an entity name
// denotes.
func DocKey(doc *pxml.Node) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.Children {
		if c.Tag == "" {
			continue
		}
		if t := c.TextContent(); t != "" {
			return t
		}
	}
	return doc.Tag
}

// OnCommit installs fn as every shard's commit observer
// (xmldb.DB.OnCommit), told which shard committed. Install it before
// the first write.
func (s *Store) OnCommit(fn func(shard int, commits []xmldb.Commit)) {
	for i, db := range s.dbs {
		db.OnCommit(func(commits []xmldb.Commit) { fn(i, commits) })
	}
}

// Len returns the number of records in a collection across all shards.
func (s *Store) Len(collection string) int {
	counts := make([]int, len(s.dbs))
	s.fanOut(func(i int, db *xmldb.DB) { counts[i] = db.Len(collection) })
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// NearContext scatters the radius query across every shard's spatial
// index in parallel and merges to one nearest-first ID list — a radius
// that straddles shard grid-cell boundaries sees exactly the records a
// single-store query would, because membership is re-checked per shard
// and the merge re-sorts by true distance. When the request is being
// traced, each shard's probe becomes a child span tagged with its shard
// index.
func (s *Store) NearContext(ctx context.Context, collection string, p geo.Point, radiusMeters float64) []int64 {
	defer storeNearSeconds.Since(time.Now())
	type hit struct {
		id int64
		d  float64
	}
	parts := make([][]hit, len(s.dbs))
	s.fanOut(func(i int, db *xmldb.DB) {
		_, sp := obs.StartSpan(ctx, spanShardNear)
		sp.SetInt("shard", i)
		defer sp.End()
		ids := db.Near(collection, p, radiusMeters)
		hits := make([]hit, 0, len(ids))
		for _, id := range ids {
			rec, ok := db.Get(collection, id)
			if !ok || rec.Location == nil {
				continue
			}
			hits = append(hits, hit{id: id, d: rec.Location.DistanceMeters(p)})
		}
		parts[i] = hits
	})
	var merged []hit
	for _, part := range parts {
		merged = append(merged, part...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].d != merged[j].d {
			return merged[i].d < merged[j].d
		}
		return merged[i].id < merged[j].id
	})
	out := make([]int64, len(merged))
	for i, h := range merged {
		out[i] = h.id
	}
	return out
}

// RunContext parses a query string (the qa.Store surface), scatters it
// across every shard in parallel and merges. With orderby score($x) each
// shard pre-truncates to its local top-k and the merge re-ranks by (score
// desc, record ID asc) before the final top-k cut — the global top-k is
// always contained in the union of per-shard top-ks. Without orderby,
// results keep shard-major order.
//
// A traced Ask records one child span per shard. Spans bracket each
// shard's Execute from outside the shard's lock (the recorder is never
// touched under db.mu).
func (s *Store) RunContext(ctx context.Context, query string) ([]xmldb.Result, error) {
	defer storeRunSeconds.Since(time.Now())
	q, err := xmldb.Parse(query)
	if err != nil {
		return nil, err
	}
	parts := make([][]xmldb.Result, len(s.dbs))
	errs := make([]error, len(s.dbs))
	s.fanOut(func(i int, db *xmldb.DB) {
		_, sp := obs.StartSpan(ctx, spanShardRun)
		sp.SetInt("shard", i)
		parts[i], errs[i] = db.Execute(q)
		sp.SetInt("results", len(parts[i]))
		sp.SetError(errs[i])
		sp.End()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var merged []xmldb.Result
	for _, part := range parts {
		merged = append(merged, part...)
	}
	if q.OrderByScore {
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].Score != merged[j].Score {
				return merged[i].Score > merged[j].Score
			}
			return merged[i].Record.ID < merged[j].Record.ID
		})
	}
	if q.TopK > 0 && len(merged) > q.TopK {
		merged = merged[:q.TopK]
	}
	return merged, nil
}

// Collections returns the union of all shards' collection names, sorted.
func (s *Store) Collections() []string {
	seen := make(map[string]bool)
	for _, db := range s.dbs {
		for _, name := range db.Collections() {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Balance reports the total record count per shard (all collections) —
// the skew metric benchmarks report.
func (s *Store) Balance() []int {
	out := make([]int, len(s.dbs))
	for i, db := range s.dbs {
		for _, name := range db.Collections() {
			out[i] += db.Len(name)
		}
	}
	return out
}
