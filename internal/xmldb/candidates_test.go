package xmldb_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tweetgen"
	"repro/internal/xmldb"
)

// TestValueIndexCandidates counts, on a two-shard store built from
// generated reports, the records Execute scores for each conjunctive
// question the QA service formulates, against the records that match.
// A scan scores the whole collection, about 13 times the matches here;
// the value index scores the matches and little else.
func TestValueIndexCandidates(t *testing.T) {
	t0 := time.Unix(1_300_000_000, 0)
	sys, err := core.New(core.Config{Shards: 2, Workers: 1, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	gen := func(seed int64, ratio float64) *tweetgen.Generator {
		g, err := tweetgen.New(tweetgen.Config{Seed: seed, Noise: 0.4, Domain: tweetgen.DomainMixed, RequestRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, m := range gen(2011, 0.02).Generate(6000) {
		if m.Truth.Type == "informative" {
			if _, err := sys.Ingest(ctx, m.Text, m.Source); err != nil {
				t.Fatal(err)
			}
		}
	}
	var queries, visited, matched int
	for _, m := range gen(2012, 0.98).Generate(400) {
		if m.Truth.Type != "request" {
			continue
		}
		ans, err := sys.Ask(ctx, m.Text, m.Source)
		if err != nil || ans.Query == "" {
			continue // classified informative, or no query formulated
		}
		q, err := xmldb.Parse(ans.Query)
		if err != nil {
			t.Fatal(err)
		}
		if q.Near != nil || len(q.Where) == 0 {
			continue
		}
		all := *q
		all.TopK = 0
		for i := 0; i < sys.Store.NumShards(); i++ {
			db := sys.Store.Shard(i)
			res, err := db.Execute(&all)
			if err != nil {
				t.Fatal(err)
			}
			matched += len(res)
			visited += db.Visited(q)
		}
		queries++
	}
	if queries < 100 || matched == 0 {
		t.Fatalf("%d conjunctive queries matching %d records: too few to measure", queries, matched)
	}
	t.Logf("%d queries: %.1f records scored, %.1f matched per query", queries,
		float64(visited)/float64(queries), float64(matched)/float64(queries))
	if float64(visited) > 1.5*float64(matched) {
		t.Errorf("Execute scores %d records for %d matches (> 1.5×)", visited, matched)
	}
}
