package neogeo

import (
	"slices"
	"time"

	"repro/internal/coordinator"
	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/pxml"
	"repro/internal/qa"
	"repro/internal/xmldb"
)

// MessageType is the classifier's first decision per message.
type MessageType string

// Message types.
const (
	// TypeInformative marks a contribution: the message carries facts to
	// integrate into the collective knowledge.
	TypeInformative MessageType = "informative"
	// TypeRequest marks a question to answer over that knowledge.
	TypeRequest MessageType = "request"
)

// Outcome summarises the processing of one message.
type Outcome struct {
	// MessageID is the queue ID the message was processed under.
	MessageID int64
	// Type is the classified message type.
	Type MessageType
	// Probability is the classifier's confidence in Type.
	Probability float64
	// Domain is the recognised subject domain ("tourism", "traffic",
	// "farming"), empty when none matched.
	Domain string
	// Inserted and Merged count integration actions for informative
	// messages: new records created versus duplicates folded into
	// existing ones.
	Inserted, Merged int
	// Answer is the structured reply for request messages, nil for
	// informative ones.
	Answer *Answer
	// Trace is the observability trace ID the message carried through
	// the pipeline (minted at Submit or accepted via X-Request-Id);
	// empty for untraced submissions.
	Trace string
}

// Answer is a question's structured reply: the generated text plus the
// formulated query and the ranked records it was generated from.
type Answer struct {
	// Text is the generated natural-language reply.
	Text string `json:"text"`
	// Query is the formulated database query, for transparency — the
	// paper shows it explicitly in the worked scenario.
	Query string `json:"query"`
	// Results are the ranked records behind the reply, best first.
	Results []Result `json:"results"`
}

// Result is one ranked record in an answer.
type Result struct {
	// ID is the record's database ID.
	ID int64 `json:"id"`
	// Certainty is the record's overall rank score — the probability the
	// query condition holds, weighted by the integration-assigned record
	// certainty (the paper's score($x)).
	Certainty float64 `json:"certainty"`
	// CondP is the probability that the query's where-clause holds for
	// this record under possible-world semantics (1 with no condition).
	CondP float64 `json:"cond_p"`
	// Location is the record's resolved position, nil when none was
	// resolved.
	Location *Location `json:"location,omitempty"`
	// Fields maps the record's top-level fields to their most likely
	// value: for probabilistic fields the highest-probability
	// alternative, for plain fields the stored text.
	Fields map[string]string `json:"fields"`
	// XML is the stored probabilistic XML document, for display and
	// debugging.
	XML string `json:"-"`
}

// Location is a resolved geographic position.
type Location struct {
	Lat float64 `json:"lat"` // latitude, degrees north
	Lon float64 `json:"lon"` // longitude, degrees east
}

// Stats is a snapshot of the system's stores and queue health.
type Stats struct {
	// GazetteerEntries and GazetteerNames size the toponym database:
	// total references and distinct names.
	GazetteerEntries int `json:"gazetteer_entries"`
	GazetteerNames   int `json:"gazetteer_names"`
	// Queue is the message queue's health.
	Queue QueueStats `json:"queue"`
	// Collections counts stored records per collection across all shards.
	Collections map[string]int `json:"collections"`
	// Shards is the store's partition count; ShardRecords the total
	// record count per shard.
	Shards       int   `json:"shards"`
	ShardRecords []int `json:"shard_records"`
	// Checkpoint is the durability subsystem's state.
	Checkpoint CheckpointStats `json:"checkpoint"`
	// Feedback is the user-feedback subsystem's counters.
	Feedback FeedbackStats `json:"feedback"`
	// Decay is the certainty-ageing totals.
	Decay DecayStats `json:"decay"`
	// Cache is the answer cache's snapshot (Enabled false without
	// WithAnswerCache).
	Cache CacheStats `json:"cache"`
	// Subscriptions is the standing-query broadcaster's snapshot.
	Subscriptions SubscriptionStats `json:"subscriptions"`
	// Traces is the span flight recorder's snapshot (Enabled false
	// without WithTraceRecorder).
	Traces TraceStats `json:"traces"`
}

// TraceStats is the span flight recorder's snapshot.
type TraceStats struct {
	// Enabled says whether tracing is configured (WithTraceRecorder).
	Enabled bool `json:"enabled"`
	// Capacity is the recorder's completed-trace ring bound; Kept how
	// many traces it currently holds; Active how many traces have
	// started but not yet finished their root span.
	Capacity int `json:"capacity"`
	Kept     int `json:"kept"`
	Active   int `json:"active"`
	// Completed counts finished traces, KeptTotal the subset the keep
	// policy recorded, Dropped the subset it discarded, and Evicted
	// recorded traces later displaced by ring capacity.
	Completed uint64 `json:"completed"`
	KeptTotal uint64 `json:"kept_total"`
	Dropped   uint64 `json:"dropped"`
	Evicted   uint64 `json:"evicted"`
	// SlowThresholdSeconds is the always-keep latency bar; SampleN the
	// 1-in-N sampling rate for ordinary traces (0: none kept).
	SlowThresholdSeconds float64 `json:"slow_threshold_seconds"`
	SampleN              int     `json:"sample_n"`
}

// CacheStats is the answer cache's snapshot.
type CacheStats struct {
	// Enabled says whether the cache is configured (WithAnswerCache).
	Enabled bool `json:"enabled"`
	// Entries is the current entry count; Capacity the configured bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits and Misses count lookups; HitRate is Hits/(Hits+Misses),
	// 0 before any lookup.
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	// Evictions counts entries dropped by LRU capacity pressure,
	// Invalidations entries dropped because a touched shard's version
	// moved.
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// SubscriptionStats is the standing-query broadcaster's snapshot.
type SubscriptionStats struct {
	// Active is the current subscription count.
	Active int `json:"active"`
	// Delivered and Dropped count events buffered for consumers versus
	// lost to per-subscription buffer bounds.
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
}

// CheckpointStats is the durability subsystem's health snapshot: is
// checkpointing configured, how many images this process has written,
// and how stale the newest one is.
type CheckpointStats struct {
	// Enabled says whether a data directory is configured (WithDataDir).
	Enabled bool `json:"enabled"`
	// Count is the number of checkpoints written since construction.
	Count int `json:"count"`
	// LastSeq, LastBytes and LastAge describe the newest valid
	// checkpoint, written or recovered; zero values when none exists.
	LastSeq   uint64        `json:"last_seq"`
	LastBytes int64         `json:"last_bytes"`
	LastAge   time.Duration `json:"last_age_ns"`
	// LastError is the most recent checkpoint attempt's failure message,
	// empty when it succeeded. /healthz degrades with reason
	// checkpoint_stale while it is set.
	LastError string `json:"-"`
}

// QueueStats is the message queue's health snapshot.
type QueueStats struct {
	// Pending is the number of undelivered messages.
	Pending int `json:"pending"`
	// InFlight is the number of leased, unacknowledged messages.
	InFlight int `json:"in_flight"`
	// Acked counts messages successfully acknowledged over the queue's
	// lifetime.
	Acked int `json:"acked"`
	// DeadLettered counts messages that exhausted their delivery
	// attempts.
	DeadLettered int `json:"dead_lettered"`
	// WALAppendErrors counts queue-WAL appends that failed on the
	// dead-letter path; non-zero means the log and the in-memory
	// dead-letter list have diverged.
	WALAppendErrors int `json:"wal_append_errors"`
}

// publicOutcome projects an internal outcome onto the facade's type.
func publicOutcome(out *coordinator.Outcome) *Outcome {
	if out == nil {
		return nil
	}
	pub := &Outcome{
		MessageID:   out.MessageID,
		Type:        MessageType(out.Type),
		Probability: out.TypeP,
		Domain:      out.Domain,
		Inserted:    out.Inserted,
		Merged:      out.Merged,
		Trace:       out.Trace,
	}
	if out.Response != nil {
		pub.Answer = publicAnswer(out.Response)
	}
	return pub
}

// publicAnswer projects the QA service's answer onto the facade's type.
func publicAnswer(ans *qa.Answer) *Answer {
	pub := &Answer{Text: ans.Text, Query: ans.Query}
	for _, r := range ans.Results {
		pub.Results = append(pub.Results, publicResult(r))
	}
	return pub
}

// publicResult flattens one ranked record: rank scores, resolved
// location, the most likely value per field, and the probabilistic
// document itself.
func publicResult(r xmldb.Result) Result {
	res := Result{
		ID:        r.Record.ID,
		Certainty: r.Score,
		CondP:     r.CondP,
		Fields:    make(map[string]string),
	}
	if r.Record.Location != nil {
		res.Location = &Location{Lat: r.Record.Location.Lat, Lon: r.Record.Location.Lon}
	}
	for _, c := range r.Record.Doc.Children {
		// Structural fields and provenance metadata stay out of the
		// public field map: the source trace names contributing users,
		// which belongs to the feedback machinery, not to answers.
		if c.Tag == "" || c.Tag == integrate.SourceTraceField {
			continue
		}
		v := c.TextContent()
		if top, ok := extract.MuxToDist(c).Top(); ok {
			v = top.Name
		}
		// Structural container fields (Geo) have no text of their own;
		// an empty value says nothing, so it stays out of the map.
		if v != "" {
			res.Fields[c.Tag] = v
		}
	}
	if s, err := pxml.Marshal(withoutSourceTrace(r.Record.Doc)); err == nil {
		res.XML = s
	}
	return res
}

// withoutSourceTrace strips the provenance element from a document
// before it is marshalled for display — the trace names contributing
// users and must not leak through the XML any more than through the
// field map. The stored document is never mutated: the copy is shallow,
// a new root whose children slice omits the first direct Source_Trace
// child and shares every other subtree, which Marshal only reads.
func withoutSourceTrace(doc *pxml.Node) *pxml.Node {
	for i, c := range doc.Children {
		if c.Tag == integrate.SourceTraceField {
			clean := *doc
			clean.Children = slices.Delete(slices.Clone(doc.Children), i, i+1)
			return &clean
		}
	}
	return doc
}
