package neogeo

import (
	"time"

	"repro/internal/core"
)

// settings is the accumulated construction state; options mutate it.
type settings struct {
	core core.Config
}

// Option configures a System under construction. The zero-option system
// is a working laptop-scale deployment; options layer on scale (shards,
// workers), durability (queue WAL) and determinism (gazetteer seed,
// clock).
type Option func(*settings)

// WithGazetteerNames sets the synthetic gazetteer's size in distinct
// toponyms (default 2000; the experiment harness uses 20000).
func WithGazetteerNames(n int) Option {
	return func(s *settings) { s.core.GazetteerNames = n }
}

// WithGazetteerSeed seeds gazetteer synthesis (default 2011), making the
// toponym database — and therefore answers — reproducible across systems.
func WithGazetteerSeed(seed int64) Option {
	return func(s *settings) { s.core.GazetteerSeed = seed }
}

// WithQueueWAL persists the message queue to a write-ahead log at path,
// so unacknowledged user contributions survive restarts.
func WithQueueWAL(path string) Option {
	return func(s *settings) { s.core.QueueWAL = path }
}

// WithDataDir makes the integrated store durable: checkpoints of the
// (possibly sharded) probabilistic database are written to dir as an
// atomic, fsynced, rotated file set, and construction restores the
// newest valid checkpoint before the queue WAL replays. Combined with
// WithQueueWAL this makes the system crash-safe — every acknowledged
// contribution is either inside the restored image or replayed into it.
func WithDataDir(dir string) Option {
	return func(s *settings) { s.core.DataDir = dir }
}

// WithCheckpointRetain keeps the newest n checkpoint files after each
// write (default 3) — enough history to survive a corrupt newest image
// without unbounded disk growth.
func WithCheckpointRetain(n int) Option {
	return func(s *settings) { s.core.CheckpointRetain = n }
}

// WithWorkers sets the width of Drain's pipeline: classification and
// extraction run on this many goroutines while per-shard integration
// lanes serialize database writes. 0 (the default) uses GOMAXPROCS.
// Ingest is not affected: it runs each message inline, in order.
func WithWorkers(n int) Option {
	return func(s *settings) { s.core.Workers = n }
}

// WithShards partitions the probabilistic spatial XML database into n
// independently locked shards, routed spatially, with one pipeline
// integration lane per shard. 0 or 1 keeps a single store.
func WithShards(n int) Option {
	return func(s *settings) { s.core.Shards = n }
}

// WithFeedbackBatch sets the per-shard verdict count that triggers an
// automatic feedback apply (default 16). Buffered verdicts below the
// threshold apply on the next FlushFeedback — the serving layer's
// background loop flushes every drain interval.
func WithFeedbackBatch(n int) Option {
	return func(s *settings) { s.core.FeedbackBatch = n }
}

// WithAnswerCache bounds the hot read path's answer cache at n entries:
// Ask results are cached under the normalized question, pinned to the
// version vector of the shards the query's plan touched, and served
// without re-running classification, extraction or the store query
// until a touched shard commits a write. 0 (the default) disables
// caching — every Ask recomputes.
func WithAnswerCache(n int) Option {
	return func(s *settings) { s.core.AnswerCache = n }
}

// WithTraceRecorder enables span tracing with an in-memory flight
// recorder bounded at n completed traces (0, the default, disables
// tracing — StartSpan degrades to a no-op on every hot path). Recorded
// traces are served by the daemon at GET /v1/traces/{id} and on the
// debug listener's /debug/traces view; Ask with "explain" always
// records its own trace regardless of this setting.
func WithTraceRecorder(n int) Option {
	return func(s *settings) { s.core.TraceRecorder = n }
}

// WithTraceSlowThreshold sets the recorder's always-keep latency bar
// (default 1s): a completed trace at least this slow is kept even when
// sampling would drop it. Meaningful only with WithTraceRecorder.
func WithTraceSlowThreshold(d time.Duration) Option {
	return func(s *settings) { s.core.TraceSlow = d }
}

// WithTraceSampling keeps one in n ordinary traces (those neither
// slow, errored, nor explicitly forced). 0, the default, keeps none —
// only the always-keep rules record. Meaningful only with
// WithTraceRecorder.
func WithTraceSampling(n int) Option {
	return func(s *settings) { s.core.TraceSampleN = n }
}

// WithClock overrides the system's time source (tests).
func WithClock(clock func() time.Time) Option {
	return func(s *settings) { s.core.Clock = clock }
}
