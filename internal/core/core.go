// Package core assembles the full neogeography system of the paper's
// Figure 3: message queue, modules coordinator with its workflows,
// information-extraction, data-integration and question-answering
// services, knowledge base, geo-ontology (Open Linked Data stand-in),
// gazetteer and the probabilistic spatial XML database — optionally
// partitioned into spatially routed shards.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/coordinator"
	"repro/internal/disambig"
	"repro/internal/extract"
	"repro/internal/feedback"
	"repro/internal/gazetteer"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/mq"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/persist"
	"repro/internal/qa"
	"repro/internal/readpath"
	"repro/internal/shard"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

// ErrNoDataDir reports a Checkpoint on a system built without a data
// directory — there is nowhere durable to write the image.
var ErrNoDataDir = errors.New("core: no data directory configured")

// Span names on the core surface (bounded constants; the metriclabels
// analyzer enforces this at every StartSpan site).
const (
	spanAsk         = "ask"
	spanCacheLookup = "cache_lookup"
)

// The sharded integrator is the pipeline's multi-lane integration sink.
var _ coordinator.Integrator = (*shard.Integrator)(nil)

// Config parameterises system construction.
type Config struct {
	// Gazetteer supplies the toponym database. Nil synthesises one with
	// GazetteerNames/GazetteerSeed.
	Gazetteer *gazetteer.Gazetteer
	// GazetteerNames is the synthetic gazetteer size when Gazetteer is
	// nil (default 2000 distinct names; the experiment harness uses
	// 20000).
	GazetteerNames int
	// GazetteerSeed seeds synthesis (default 2011).
	GazetteerSeed int64
	// QueueWAL, when non-empty, persists the message queue to this file.
	QueueWAL string
	// DataDir, when non-empty, makes the store durable: checkpoints of
	// the (possibly sharded) database land here as an atomic, rotated
	// file set, and construction restores the newest valid one before
	// the queue WAL replays — messages acknowledged after that image
	// come back as pending and re-integrate idempotently.
	DataDir string
	// CheckpointRetain keeps this many checkpoint files after each
	// write (default 3).
	CheckpointRetain int
	// Workers sets the width of the coordinator's drain pipeline
	// (MC.DrainEach): classification and extraction run on this many
	// goroutines while per-shard integration lanes serialize database
	// writes. 0 defaults to GOMAXPROCS. It does not affect MC.ProcessOne,
	// the inline reference engine behind Ingest.
	Workers int
	// Shards partitions the probabilistic spatial XML database into this
	// many independently locked shards, routed spatially (gazetteer-grid
	// cells of the record's resolved location, with an entity-key hash
	// fallback), with one pipeline integration lane per shard. 0 or 1
	// keeps today's single-store behavior.
	Shards int
	// FeedbackBatch is the per-shard verdict count that triggers an
	// automatic feedback apply (default 16); the serving layer's loop
	// also flushes whatever is buffered every drain interval.
	FeedbackBatch int
	// AnswerCache bounds the hot read path's answer cache (entries of
	// Ask results keyed by normalized question + the version vector of
	// the shards the query plan touched). 0 disables caching: every Ask
	// re-runs classification, extraction and the fan-out store query.
	AnswerCache int
	// TraceRecorder enables span tracing: completed request/pipeline
	// traces land in a flight recorder ring of this many traces,
	// installed process-wide (the newest system owns it, like the
	// GaugeFuncs). 0 — the default — leaves tracing off, and the span
	// hot path costs one atomic load.
	TraceRecorder int
	// TraceSlow is the recorder's always-keep latency threshold
	// (default 1s): any trace at least this slow is retained regardless
	// of sampling, as is any errored or explain-forced trace.
	TraceSlow time.Duration
	// TraceSampleN keeps one in N traces that no always-keep rule
	// matched; 0 disables sampling so only slow/errored/forced traces
	// are kept.
	TraceSampleN int
	// Clock overrides the time source (tests).
	Clock func() time.Time
}

// System is the assembled pipeline.
type System struct {
	// Gaz, Ont and KB are the reference set: built before New shares
	// them, and only read afterwards.
	Gaz *gazetteer.Gazetteer
	Ont *ontology.Ontology
	KB  *kb.KB
	// Trust is the learned source-trust model. Integration and feedback
	// update it, extraction reads it, and the checkpoint image carries
	// it across restarts.
	Trust *uncertain.TrustModel
	// Store is the (possibly sharded) probabilistic spatial XML store;
	// with Shards <= 1 it wraps the single database, Store.Shard(0). All
	// reads that must see the whole system go through it.
	Store *shard.Store
	Queue *mq.Queue
	IE    *extract.Service
	// DIs holds one integration service per shard.
	DIs []*integrate.Service
	QA  *qa.Service
	MC  *coordinator.Coordinator
	// Integrator is the coordinator's integration sink (one lane per
	// shard).
	Integrator *shard.Integrator
	// Persist is the durability subsystem's checkpoint manager, nil
	// without a data directory.
	Persist *persist.Manager
	// Priors is the disambiguation reinforcement memory the feedback
	// engine feeds and the extraction resolver consults.
	Priors *disambig.Priors
	// Feedback is the user-feedback engine: verdicts on answer results
	// route to their record's home shard and apply in batches.
	Feedback *feedback.Engine
	// Cache is the hot read path's answer cache, nil when disabled
	// (Config.AnswerCache == 0).
	Cache *readpath.Cache
	// Broker is the standing-query broadcaster — the system's single
	// fan-out point between the write lanes and subscribers. Always
	// built; idle until something subscribes.
	Broker *readpath.Broker
	// Recorder is the flight recorder this system installed, nil when
	// tracing is off (Config.TraceRecorder == 0).
	Recorder *obs.Recorder
	clock    func() time.Time
	// decayMu guards the cumulative decay counters.
	decayMu    sync.Mutex
	decayStats DecayStats
}

// DecayStats accumulates the certainty-ageing totals across explicit
// and loop-driven decay runs.
type DecayStats struct {
	// Runs counts DecayAll invocations.
	Runs int64
	// Decayed and Deleted total the records aged and dropped.
	Decayed int64
	Deleted int64
}

// NewTrustModel returns the source-trust model a system starts from:
// every unseen source has reliability 0.6, backed by four pseudo-
// observations.
func NewTrustModel() *uncertain.TrustModel {
	t, err := uncertain.NewTrustModel(0.6, 4)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	return t
}

// New builds a system.
func New(cfg Config) (*System, error) {
	s := &System{clock: cfg.Clock}
	if s.clock == nil {
		s.clock = time.Now
	}
	var err error
	s.Gaz = cfg.Gazetteer
	if s.Gaz == nil {
		names := cfg.GazetteerNames
		if names == 0 {
			names = 2000
		}
		seed := cfg.GazetteerSeed
		if seed == 0 {
			seed = 2011
		}
		s.Gaz, err = gazetteer.Synthesize(gazetteer.Config{Names: names, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("core: synthesising gazetteer: %w", err)
		}
	}
	s.Ont = ontology.New()
	s.Ont.LoadContainment(s.Gaz)
	s.KB = kb.New()
	s.Trust = NewTrustModel()
	s.Priors = disambig.NewPriors()

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	s.Store, err = shard.New(shards)
	if err != nil {
		return nil, fmt.Errorf("core: building sharded store: %w", err)
	}
	if cfg.Clock != nil {
		s.Store.SetClock(cfg.Clock)
	}
	// The hot read path: the broker always exists (idle until something
	// subscribes); the answer cache only when sized.
	s.Broker = readpath.NewBroker(s.Store)
	// Standing queries see every announced commit — integration inserts
	// and merges, feedback applies — as it lands: the observer runs on
	// the writing goroutine after the shard's batch released its lock
	// and bumped its version, publishes the records' post-write state,
	// and is skipped entirely while the shard has no subscribers.
	s.Store.OnCommit(func(lane int, commits []xmldb.Commit) {
		if !s.Broker.ActiveOn(lane) {
			return
		}
		now := s.clock()
		for _, c := range commits {
			if rec, ok := s.Store.Shard(lane).Get(c.Collection, c.RecordID); ok {
				s.Broker.Publish(lane, c.Action, c.Collection, rec, now)
			}
		}
	})
	if cfg.AnswerCache > 0 {
		s.Cache = readpath.NewCache(cfg.AnswerCache)
	}

	// Durability: restore the newest valid checkpoint into the store
	// BEFORE the queue WAL replays, so messages acknowledged after the
	// image (its recorded LSN) re-enter the queue and re-integrate into
	// the restored state instead of an empty one. The composite image
	// carries the learned auxiliary state too — source trust, the
	// disambiguation priors, and the feedback engine's applied watermark
	// — so none of it silently resets to defaults on restart.
	var recoveredLSN int64
	var recoveredFB recoveredFeedback
	if cfg.DataDir != "" {
		popts := []persist.Option{persist.WithClock(s.clock)}
		if cfg.CheckpointRetain > 0 {
			popts = append(popts, persist.WithRetain(cfg.CheckpointRetain))
		}
		s.Persist, err = persist.NewManager(cfg.DataDir, popts...)
		if err != nil {
			return nil, fmt.Errorf("core: opening data directory: %w", err)
		}
		info, err := s.Persist.Recover(image{
			store:     s.Store,
			trust:     s.Trust,
			priors:    s.Priors,
			recovered: &recoveredFB,
		})
		if err != nil {
			return nil, fmt.Errorf("core: recovering checkpoint: %w", err)
		}
		if info != nil {
			recoveredLSN = info.LSN
		}
	}

	// The feedback ledger replays independently of the queue WAL:
	// verdicts accepted after the restored image's watermark are parked
	// and re-applied once their records exist again (deferring past the
	// WAL replay that re-integrates them).
	var ledger feedback.Ledger
	var replay []feedback.Entry
	if cfg.DataDir != "" {
		ledger, replay, err = feedback.OpenFileLedger(filepath.Join(cfg.DataDir, "feedback.log"))
		if err != nil {
			return nil, fmt.Errorf("core: opening feedback ledger: %w", err)
		}
	} else {
		ledger = feedback.NewMemLedger()
	}
	// Any construction failure past this point must release the ledger's
	// file handle (Close on a built System does it via the engine).
	built := false
	defer func() {
		if !built {
			_ = ledger.Close()
		}
	}()
	s.Feedback, err = feedback.NewEngine(feedback.Config{
		Store:       s.Store,
		Trust:       s.Trust,
		Gaz:         s.Gaz,
		Priors:      s.Priors,
		Ledger:      ledger,
		Batch:       cfg.FeedbackBatch,
		Clock:       s.clock,
		AppliedSeq:  recoveredFB.seq,
		AppliedDone: recoveredFB.done,
	})
	if err != nil {
		return nil, fmt.Errorf("core: building feedback engine: %w", err)
	}
	s.Feedback.Park(replay)

	if cfg.QueueWAL != "" {
		qopts := []mq.Option{mq.WithClock(s.clock)}
		if s.Persist != nil {
			qopts = append(qopts, mq.WithReplayAckedAfter(recoveredLSN))
		}
		s.Queue, err = mq.Open(cfg.QueueWAL, qopts...)
		if err != nil {
			return nil, fmt.Errorf("core: opening queue: %w", err)
		}
	} else {
		s.Queue = mq.New(mq.WithClock(s.clock))
	}
	// Close the loop: the extraction resolver consults the reinforcement
	// priors the feedback engine feeds, so confirmed interpretations
	// change how future ambiguous mentions resolve.
	if s.IE, err = extract.NewService(s.KB, s.Gaz, s.Ont, s.Trust.Reliability, s.Priors); err != nil {
		return nil, err
	}
	if s.Integrator, err = shard.NewIntegrator(s.KB, s.Trust, s.Store); err != nil {
		return nil, err
	}
	s.DIs = s.Integrator.Services()
	if s.QA, err = qa.NewService(s.Store, s.KB, s.Gaz); err != nil {
		return nil, err
	}
	if s.MC, err = coordinator.New(s.Queue, s.IE, s.Integrator, s.QA); err != nil {
		return nil, err
	}
	s.MC.SetWorkers(cfg.Workers)
	if cfg.Clock != nil {
		s.MC.SetClock(cfg.Clock)
	}
	// Queue depth is sampled from the live queue at scrape time;
	// GaugeFunc replaces on re-register, so the newest system owns the
	// process-wide series (a daemon builds exactly one).
	q := s.Queue
	obs.Default().GaugeFunc("neogeo_mq_pending",
		"Undelivered messages waiting in the queue.",
		func() float64 { return float64(q.Len()) })
	obs.Default().GaugeFunc("neogeo_mq_in_flight",
		"Leased, unacknowledged messages.",
		func() float64 { return float64(q.InFlight()) })
	// Span tracing is opt-in; like the GaugeFuncs, the newest system
	// that asks for a recorder owns the process-wide one. With
	// TraceRecorder == 0 whatever is installed (normally nothing) is
	// left alone.
	if cfg.TraceRecorder > 0 {
		s.Recorder = obs.NewRecorder(obs.RecorderConfig{
			Capacity: cfg.TraceRecorder,
			Slow:     cfg.TraceSlow,
			SampleN:  cfg.TraceSampleN,
		})
		obs.SetDefaultRecorder(s.Recorder)
	}
	built = true
	return s, nil
}

// Close releases resources (the queue WAL, the feedback ledger and the
// standing-query broadcaster).
func (s *System) Close() error {
	s.Broker.Close()
	err := s.Queue.Close()
	if ferr := s.Feedback.Close(); err == nil {
		err = ferr
	}
	return err
}

// Submit enqueues a raw user message for asynchronous processing. A
// trace ID carried by ctx (obs.WithTrace) is persisted in the message
// envelope.
func (s *System) Submit(ctx context.Context, body, source string) (int64, error) {
	return s.MC.Submit(ctx, body, source)
}

// Ingest submits and fully processes one informative message, returning
// its outcome. It runs the queue's next message through MC.ProcessOne —
// its own submission only while no concurrent drain is leasing messages;
// serving deployments use Submit + MC.DrainEach for contributions and Ask
// for questions.
func (s *System) Ingest(ctx context.Context, body, source string) (*coordinator.Outcome, error) {
	if _, err := s.Submit(ctx, body, source); err != nil {
		return nil, err
	}
	out, ok, err := s.MC.ProcessOne(ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: message vanished from queue")
	}
	return out, nil
}

// Ask answers a question synchronously through the coordinator's
// read-only QA path — classification, extraction and query execution run
// inline, nothing is enqueued — and returns the QA service's structured
// answer. A message classified informative returns a
// *coordinator.NotAQuestionError carrying what the classifier saw (type,
// probability), so callers can branch on the condition and report the
// classification instead of parsing an error string. Because the queue is
// untouched, Ask is safe to call while a concurrent drain integrates
// pending informative messages.
func (s *System) Ask(ctx context.Context, question, source string) (*qa.Answer, error) {
	ctx, sp := obs.StartSpan(ctx, spanAsk)
	defer sp.End()
	if s.Cache == nil {
		ans, err := s.MC.AskDirect(ctx, question, source)
		sp.SetError(err)
		return ans, err
	}
	// The version vector and drift epoch are read BEFORE the question
	// runs: a write that lands during execution moves a version past the
	// one recorded here, so the entry is born stale and the next Get
	// recomputes — racing writes cost a recompute, never a stale hit.
	// The cache key is the normalized question alone, which is sound
	// because the QA path never consults source or the clock for
	// requests (extraction returns before touching either, and place
	// resolution ranks by gazetteer population only).
	//
	// The lookup span brackets Get from outside — the recorder must
	// never be touched under Cache.mu (lockdiscipline pins this).
	q := readpath.NormalizeQuestion(question)
	_, lookup := obs.StartSpan(ctx, spanCacheLookup)
	versions := s.Store.Versions()
	drift := s.Store.Drift()
	ans, hit := s.Cache.Get(q, versions, drift)
	if lookup != nil {
		lookup.SetAttr("hit", strconv.FormatBool(hit))
		lookup.SetAttr("shard_versions", fmt.Sprint(versions))
		lookup.End()
	}
	if hit {
		sp.SetAttr("cache", "hit")
		return ans, nil
	}
	sp.SetAttr("cache", "miss")
	ans, err := s.MC.AskDirect(ctx, question, source)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	touched := readpath.TouchedShards(ans.Query, s.Store)
	sp.SetAttr("touched_shards", fmt.Sprint(touched))
	s.Cache.Put(q, ans, touched, versions, drift)
	return ans, nil
}

// DecayAll applies temporal certainty decay to every collection on every
// shard, dropping records below floor, and accumulates the totals the
// stats endpoint reports.
func (s *System) DecayAll(now time.Time, floor uncertain.CF) (decayed, deleted int, err error) {
	for i, di := range s.DIs {
		for _, coll := range s.Store.Shard(i).Collections() {
			d, x, err := di.Decay(coll, now, floor)
			if err != nil {
				return decayed, deleted, err
			}
			decayed += d
			deleted += x
		}
	}
	s.decayMu.Lock()
	s.decayStats.Runs++
	s.decayStats.Decayed += int64(decayed)
	s.decayStats.Deleted += int64(deleted)
	s.decayMu.Unlock()
	return decayed, deleted, nil
}

// DecayStats returns the cumulative certainty-ageing totals.
func (s *System) DecayStats() DecayStats {
	s.decayMu.Lock()
	defer s.decayMu.Unlock()
	return s.decayStats
}

// Stats is a snapshot of what the system itself sizes — the gazetteer
// and the store's layout. Component counters are read off the exported
// components (Queue, Feedback, Broker, Cache, Recorder).
type Stats struct {
	GazetteerEntries int
	GazetteerNames   int
	// Collections counts records per collection across all shards.
	Collections map[string]int
	// Shards is the store's partition count; ShardRecords the total
	// record count per shard (the balance benchmarks report).
	Shards       int
	ShardRecords []int
}

// Stats returns a snapshot of the system's stores.
func (s *System) Stats() Stats {
	st := Stats{
		GazetteerEntries: s.Gaz.Len(),
		GazetteerNames:   s.Gaz.NameCount(),
		Collections:      make(map[string]int),
		Shards:           s.Store.NumShards(),
		ShardRecords:     s.Store.Balance(),
	}
	for _, c := range s.Store.Collections() {
		st.Collections[c] = s.Store.Len(c)
	}
	return st
}

// Checkpoint writes one durable checkpoint of the store to the data
// directory and returns its Info. The queue's WAL sequence number is
// captured before the snapshot, so every message acknowledged up to
// that point is covered by the image and every later one will be
// re-integrated at recovery — a message integrated while the snapshot
// runs may land in both, which the integrator's find-dup+merge absorbs.
// Without a data directory it fails with ErrNoDataDir.
func (s *System) Checkpoint(ctx context.Context) (persist.Info, error) {
	if s.Persist == nil {
		return persist.Info{}, ErrNoDataDir
	}
	if err := ctx.Err(); err != nil {
		return persist.Info{}, err
	}
	return s.Persist.CheckpointContext(ctx, s.image(), s.Queue.LSN())
}

// image assembles the composite durable state: store bytes plus the
// learned auxiliary state (trust, priors, feedback watermark).
func (s *System) image() image {
	return image{store: s.Store, trust: s.Trust, priors: s.Priors, eng: s.Feedback}
}

// CheckpointStats is the durability subsystem's health snapshot.
type CheckpointStats struct {
	// Enabled says whether a data directory is configured.
	Enabled bool
	// Count is the number of checkpoints written since construction.
	Count int
	// LastSeq, LastBytes and LastAge describe the newest valid
	// checkpoint (written or recovered); zero values when none exists.
	LastSeq   uint64
	LastBytes int64
	LastAge   time.Duration
	// LastError is the failure message of the most recent checkpoint
	// attempt, empty when it succeeded — the health endpoint's
	// checkpoint_stale signal watches it so a silently failing
	// durability loop degrades /healthz instead of surfacing only as
	// restart-time data loss.
	LastError string
}

// CheckpointStats reports the durability subsystem's state, measuring
// the newest checkpoint's age against the system clock.
func (s *System) CheckpointStats() CheckpointStats {
	if s.Persist == nil {
		return CheckpointStats{}
	}
	st := s.Persist.Stats()
	out := CheckpointStats{Enabled: true, Count: st.Count, LastError: st.LastError}
	if st.Last != nil {
		out.LastSeq = st.Last.Seq
		out.LastBytes = st.Last.Size
		out.LastAge = s.clock().Sub(st.Last.Created)
	}
	return out
}

// Snapshot writes a composite image of the system's durable state to w:
// the (possibly sharded) probabilistic spatial XML database plus the
// learned auxiliary state — source trust, disambiguation priors and the
// feedback watermark. Together with the message queue's WAL and the
// feedback ledger this covers everything a restart must not lose; the
// gazetteer, ontology and KB schemas are rebuilt from configuration.
// Store shards snapshot one at a time, so writes racing a multi-shard
// snapshot can land in a later section only — quiesce the drain first
// for a point-in-time image of the whole store (feedback applies are
// excluded automatically for the duration).
func (s *System) Snapshot(w io.Writer) error {
	return s.image().Snapshot(w)
}

// Restore replaces the database contents and learned state with a
// snapshot produced by Snapshot. On error the database is unchanged.
func (s *System) Restore(r io.Reader) error {
	return s.image().Restore(r)
}
