// Package server exposes the neogeo facade as a JSON HTTP API — the
// network surface of the paper's deployment story, where user
// contributions and requests arrive as web traffic instead of a terminal
// stream. It is a serving layer over the public facade only: handlers
// speak neogeo.System, neogeo.Answer and the facade's sentinel errors,
// never the internal pipeline, so everything the HTTP surface can do is
// by construction available to library callers too.
//
// Endpoints (see docs/API.md for the full contract):
//
//	POST   /v1/messages              submit a contribution for asynchronous integration
//	POST   /v1/ask                   answer a question synchronously
//	POST   /v1/feedback              return a verdict on an answer result
//	POST   /v1/subscribe             register a standing query (entity key or geofence)
//	GET    /v1/subscribe/{id}/stream stream the standing query's matches (SSE)
//	DELETE /v1/subscribe/{id}        cancel a standing query
//	POST   /v1/decay                 age stored certainties now (admin)
//	POST   /v1/checkpoint            write one durable checkpoint now (admin)
//	GET    /v1/stats                 store, shard, queue, feedback and durability stats
//	GET    /healthz                  liveness + queue/durability health
//	GET    /metrics                  Prometheus text exposition of the whole pipeline
//
// Submitted messages are integrated by a background drain loop (Run)
// that periodically drains the queue through the concurrent pipeline via
// the facade's streaming iterator; accepted feedback verdicts apply in
// batches on the same cadence. Run also hosts the durability loop —
// periodic checkpoints of the integrated store (WithCheckpointInterval,
// on a system built with a data directory) — and an optional
// certainty-decay loop ageing stored records.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	neogeo "repro"
	"repro/internal/obs"
)

// System is the slice of the neogeo facade the server drives;
// *neogeo.System implements it. It is an interface so handler tests can
// pin rare operational states — dead-lettered messages, stalled queues,
// checkpoint failures — without forcing the real pipeline into them.
type System interface {
	Submit(ctx context.Context, body, source string) (int64, error)
	Ask(ctx context.Context, question, source string) (*neogeo.Answer, error)
	Stats() neogeo.Stats
	Drain(ctx context.Context, limit int) iter.Seq2[*neogeo.Outcome, error]
	Checkpoint(ctx context.Context) (neogeo.CheckpointInfo, error)
	Decay(now time.Time, floor float64) (decayed, deleted int, err error)
	Feedback(ctx context.Context, fb neogeo.Feedback) (neogeo.FeedbackReceipt, error)
	FlushFeedback(ctx context.Context) (int, error)
	Subscribe(ctx context.Context, sub neogeo.Subscription) (string, error)
	Unsubscribe(ctx context.Context, id string) error
	OpenSubscription(ctx context.Context, id string) (*neogeo.SubscriptionStream, error)
}

// Server serves a neogeo System over HTTP.
type Server struct {
	sys           System
	drainInterval time.Duration
	// ckptInterval is the periodic-checkpoint cadence (0: none).
	ckptInterval time.Duration
	// decayInterval/decayFloor run the certainty-ageing loop (0: off).
	decayInterval time.Duration
	decayFloor    float64
	// stallAfter is how long the queue may hold pending messages without
	// any acknowledgement progress before /healthz degrades.
	stallAfter time.Duration
	// heartbeat is the SSE comment-line cadence on quiet subscription
	// streams.
	heartbeat time.Duration
	log       *slog.Logger
	// routes is the path -> method -> handler table, built once in New;
	// everything off it is a JSON 404/405.
	routes map[string]map[string]http.HandlerFunc

	// progressMu guards the drain-progress watermark behind the
	// stalled-queue health signal.
	progressMu     sync.Mutex
	progressSeen   bool
	progressCount  int
	progressMarkAt time.Time
}

// Option configures a Server.
type Option func(*Server)

// WithDrainInterval sets how often the background drain loop empties the
// queue (default 250ms).
func WithDrainInterval(d time.Duration) Option {
	return func(s *Server) { s.drainInterval = d }
}

// WithCheckpointInterval makes Run checkpoint the store every d
// (default 0: no loop, leaving only POST /v1/checkpoint and shutdown
// checkpoints). Meaningful only on a system built with a data directory.
func WithCheckpointInterval(d time.Duration) Option {
	return func(s *Server) { s.ckptInterval = d }
}

// WithDecayInterval makes Run age stored certainties every d
// (default 0: no decay loop).
func WithDecayInterval(d time.Duration) Option {
	return func(s *Server) { s.decayInterval = d }
}

// WithDecayFloor sets the certainty below which a decayed record is
// deleted (default 0.05).
func WithDecayFloor(f float64) Option {
	return func(s *Server) { s.decayFloor = f }
}

// WithStallAfter sets how long pending messages may sit without any
// acknowledgement progress before /healthz reports the queue stalled
// (default 5s, floored at 10 drain intervals).
func WithStallAfter(d time.Duration) Option {
	return func(s *Server) { s.stallAfter = d }
}

// WithHeartbeatInterval sets how often a quiet subscription stream
// emits an SSE comment line so intermediaries keep the connection open
// (default 15s).
func WithHeartbeatInterval(d time.Duration) Option {
	return func(s *Server) { s.heartbeat = d }
}

// WithSlog routes the server's diagnostics (drain/checkpoint/decay
// errors, masked 500 causes) to a structured logger (default: the
// process slog logger; the daemon passes its -log-format/-log-level
// logger here).
func WithSlog(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// New wires a server around a built system.
func New(sys System, opts ...Option) *Server {
	s := &Server{
		sys:           sys,
		drainInterval: 250 * time.Millisecond,
		decayFloor:    0.05,
		stallAfter:    5 * time.Second,
		heartbeat:     15 * time.Second,
		log:           slog.Default(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if min := 10 * s.drainInterval; s.stallAfter < min {
		s.stallAfter = min
	}
	s.routes = map[string]map[string]http.HandlerFunc{
		"/v1/messages":   {http.MethodPost: s.handleSubmit},
		"/v1/ask":        {http.MethodPost: s.handleAsk},
		"/v1/feedback":   {http.MethodPost: s.handleFeedback},
		"/v1/subscribe":  {http.MethodPost: s.handleSubscribe},
		"/v1/decay":      {http.MethodPost: s.handleDecay},
		"/v1/checkpoint": {http.MethodPost: s.handleCheckpoint},
		"/v1/stats":      {http.MethodGet: s.handleStats},
		"/healthz":       {http.MethodGet: s.handleHealthz},
		"/metrics":       {http.MethodGet: obs.Handler(obs.Default()).ServeHTTP},
	}
	return s
}

// Run is the serving layer's background half: it drains the queue
// through the concurrent pipeline every drain interval (integrating
// what POST /v1/messages enqueued), checkpoints the store every
// checkpoint interval when durability is configured, and ages record
// certainties every decay interval when enabled. It returns when ctx is
// done and the in-flight pass has wound down; the final shutdown
// checkpoint is the daemon's, ordered after Run returns and before the
// queue WAL closes.
func (s *Server) Run(ctx context.Context) {
	drain := time.NewTicker(s.drainInterval)
	defer drain.Stop()
	var ckptC, decayC <-chan time.Time
	if s.ckptInterval > 0 {
		t := time.NewTicker(s.ckptInterval)
		defer t.Stop()
		ckptC = t.C
	}
	if s.decayInterval > 0 {
		t := time.NewTicker(s.decayInterval)
		defer t.Stop()
		decayC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-drain.C:
			for _, err := range s.sys.Drain(ctx, 0) {
				if err != nil {
					s.log.Error("server: drain failed", "err", err)
				}
			}
			// Apply buffered feedback on the drain cadence, after the
			// pass: verdicts parked at recovery wait for the drain to
			// re-integrate their records, so this ordering converges.
			if _, err := s.sys.FlushFeedback(ctx); err != nil && ctx.Err() == nil {
				s.log.Error("server: feedback flush failed", "err", err)
			}
		case <-ckptC:
			if info, err := s.sys.Checkpoint(ctx); err != nil {
				if ctx.Err() == nil {
					s.log.Error("server: checkpoint failed", "err", err)
				}
			} else {
				s.log.Info("server: checkpoint written", "seq", info.Seq, "bytes", info.Bytes)
			}
		case <-decayC:
			decayed, deleted, err := s.sys.Decay(time.Now(), s.decayFloor)
			if err != nil {
				s.log.Error("server: decay failed", "err", err)
			} else if decayed+deleted > 0 {
				s.log.Info("server: decay pass", "aged", decayed, "dropped", deleted, "floor", s.decayFloor)
			}
		}
	}
}

// ServeHTTP routes requests with uniform JSON error mapping: unknown
// paths are 404 not_found, known paths with the wrong method are 405
// method_not_allowed (with an Allow header), malformed bodies are 400
// bad_request, and semantically rejected inputs are 422.
//
// Every request passes through the observability middleware first: a
// trace ID is accepted from X-Request-Id (or minted), echoed back on
// the response, and carried in the request context so handlers thread
// it into the pipeline; the route's count and latency are recorded
// with the route label bounded to the server's own table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := s.routeLabel(r.URL.Path)
	trace := sanitizeRequestID(r.Header.Get("X-Request-Id"))
	if trace == "" {
		trace = obs.NewTraceID()
	}
	w.Header().Set("X-Request-Id", trace)
	ctx, st := obs.Stage(obs.WithTrace(r.Context(), trace), spanHTTPRequest, mHTTPSeconds.With(route))
	st.SetAttr("route", route)
	st.SetAttr("method", methodLabel(r.Method))
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	// Deferred so a handler panic (net/http recovers it per connection)
	// is still timed, counted as a 5xx and completes the root span — an
	// unclosed root would pin the trace in the recorder's active set
	// forever. The panic is re-raised after flagging the trace errored
	// so the recorder always keeps it.
	defer func() {
		rec := recover()
		var err error
		if rec != nil {
			err = fmt.Errorf("panic: %v", rec)
			sw.code = http.StatusInternalServerError
		}
		st.SetInt("status", sw.code)
		st.End(err)
		mHTTPRequests.With(route, methodLabel(r.Method), strconv.Itoa(sw.code/100)+"xx").Inc()
		if rec != nil {
			panic(rec)
		}
	}()
	s.route(sw, r)
}

// routeLabel collapses an arbitrary request path onto the server's
// fixed route vocabulary so the metric label stays bounded.
// Subscription sub-resources carry an ID in the path and collapse to a
// template; everything unknown is "other".
func (s *Server) routeLabel(path string) string {
	if _, known := s.routes[path]; known {
		return path
	}
	if _, stream, ok := subscribePath(path); ok {
		if stream {
			return "/v1/subscribe/{id}/stream"
		}
		return "/v1/subscribe/{id}"
	}
	if _, ok := tracesPath(path); ok {
		return "/v1/traces/{id}"
	}
	return "other"
}

// methodLabel collapses the request method onto the handful the API
// serves; arbitrary client-supplied methods must not mint series.
func methodLabel(m string) string {
	switch m {
	case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead:
		return m
	}
	return "other"
}

// route is the dispatch half of ServeHTTP, after the middleware.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	byMethod, ok := s.routes[r.URL.Path]
	if !ok {
		if id, stream, subOK := subscribePath(r.URL.Path); subOK {
			switch {
			case stream && r.Method == http.MethodGet:
				s.handleStream(w, r, id)
			case !stream && r.Method == http.MethodDelete:
				s.handleUnsubscribe(w, r, id)
			default:
				allow := http.MethodDelete
				if stream {
					allow = http.MethodGet
				}
				w.Header().Set("Allow", allow)
				s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
					fmt.Sprintf("%s does not accept %s", r.URL.Path, r.Method), nil)
			}
			return
		}
		if id, traceOK := tracesPath(r.URL.Path); traceOK {
			if r.Method == http.MethodGet {
				s.handleTrace(w, r, id)
			} else {
				w.Header().Set("Allow", http.MethodGet)
				s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
					fmt.Sprintf("%s does not accept %s", r.URL.Path, r.Method), nil)
			}
			return
		}
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint: %s", r.URL.Path), nil)
		return
	}
	h, ok := byMethod[r.Method]
	if !ok {
		allowed := make([]string, 0, len(byMethod))
		for m := range byMethod {
			allowed = append(allowed, m)
		}
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s does not accept %s", r.URL.Path, r.Method), nil)
		return
	}
	h(w, r)
}

// statusWriter records the status code ServeHTTP's metrics need; a
// handler that never calls WriteHeader implies 200.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer so streaming handlers can reach the
// connection's Flusher through the metrics middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// sanitizeRequestID bounds a caller-supplied trace ID: at most 64 bytes
// of printable ASCII with no spaces or quotes, so arbitrary header
// junk cannot wreck log lines. Anything else is discarded (a fresh ID
// is minted instead).
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return ""
		}
	}
	return id
}

// submitRequest is the POST /v1/messages body.
type submitRequest struct {
	Text   string `json:"text"`
	Source string `json:"source"`
}

// submitResponse acknowledges an enqueued message.
type submitResponse struct {
	ID     int64  `json:"id"`
	Status string `json:"status"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		s.writeError(w, http.StatusUnprocessableEntity, "empty_message", "text must not be empty", nil)
		return
	}
	id, err := s.sys.Submit(r.Context(), req.Text, req.Source)
	if err != nil {
		if errors.Is(err, neogeo.ErrQueueClosed) {
			s.writeError(w, http.StatusServiceUnavailable, "queue_closed", "the system is shutting down", nil)
			return
		}
		s.internalError(w, r, "submit", err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, submitResponse{ID: id, Status: "queued"})
}

// askRequest is the POST /v1/ask body. Explain asks for the answer's
// own span breakdown alongside the answer — same computation, same
// bytes, plus a "trace" field.
type askRequest struct {
	Question string `json:"question"`
	Source   string `json:"source"`
	Explain  bool   `json:"explain,omitempty"`
}

// askResponse wraps the structured answer; Trace is present only in
// explain mode, so a plain response's bytes never change.
type askResponse struct {
	Answer neogeo.Answer `json:"answer"`
	Trace  *traceJSON    `json:"trace,omitempty"`
}

// traceJSON is the explain-mode breakdown: the trace ID (fetchable via
// GET /v1/traces/{id} while the recorder holds it), whether a recorder
// is installed, and the span subtree of this very Ask.
type traceJSON struct {
	TraceID   string        `json:"trace_id"`
	Recorded  bool          `json:"recorded"`
	Breakdown *obs.SpanView `json:"breakdown"`
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req askRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		s.writeError(w, http.StatusUnprocessableEntity, "empty_question", "question must not be empty", nil)
		return
	}
	ctx := r.Context()
	var explain *obs.Span
	if req.Explain {
		// ForceSpan records even with no recorder installed and marks
		// the trace force-kept, so the returned trace ID stays
		// fetchable when one is. The Ask call itself is identical to
		// the plain path — explain must never perturb the answer.
		ctx, explain = obs.ForceSpan(ctx, spanAskExplain)
	}
	ans, err := s.sys.Ask(ctx, req.Question, req.Source)
	if explain != nil {
		explain.SetError(err)
		explain.End()
	}
	if err != nil {
		var naq *neogeo.NotAQuestionError
		if errors.As(err, &naq) {
			s.writeError(w, http.StatusUnprocessableEntity, "not_a_question",
				"the message was classified as a contribution, not a question; submit it to /v1/messages instead",
				map[string]any{
					"type":        string(naq.Type),
					"probability": naq.Probability,
				})
			return
		}
		s.internalError(w, r, "ask", err)
		return
	}
	resp := askResponse{Answer: *ans}
	if resp.Answer.Results == nil {
		resp.Answer.Results = []neogeo.Result{} // "results": [], never null
	}
	if explain != nil {
		resp.Trace = &traceJSON{
			TraceID:   obs.Trace(ctx),
			Recorded:  obs.DefaultRecorder() != nil,
			Breakdown: explainBreakdown(explain),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// feedbackResponse acknowledges an accepted verdict. Status "accepted"
// says the verdict is durably logged and will apply within one drain
// interval; the effects are not yet visible.
type feedbackResponse struct {
	Seq    int64  `json:"seq"`
	Status string `json:"status"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req neogeo.Feedback // the POST /v1/feedback body
	if !s.decodeJSON(w, r, &req) {
		return
	}
	receipt, err := s.sys.Feedback(r.Context(), req)
	if err != nil {
		switch {
		case errors.Is(err, neogeo.ErrInvalidFeedback):
			s.writeError(w, http.StatusUnprocessableEntity, "invalid_feedback", err.Error(), nil)
		case errors.Is(err, neogeo.ErrUnknownRecord):
			s.writeError(w, http.StatusNotFound, "unknown_record",
				fmt.Sprintf("no record %d exists; feedback must reference a result id from an answer", req.RecordID), nil)
		case errors.Is(err, neogeo.ErrStaleAnswer):
			s.writeError(w, http.StatusGone, "stale_answer",
				fmt.Sprintf("record %d no longer exists (it decayed or was corrected away); ask again for a fresh answer", req.RecordID), nil)
		default:
			s.internalError(w, r, "feedback", err)
		}
		return
	}
	s.writeJSON(w, http.StatusAccepted, feedbackResponse{Seq: receipt.Seq, Status: "accepted"})
}

// decayRequest is the POST /v1/decay body; an empty body uses the
// server's configured floor.
type decayRequest struct {
	Floor *float64 `json:"floor,omitempty"`
}

// decayResponse reports one certainty-ageing pass.
type decayResponse struct {
	Decayed int     `json:"decayed"`
	Deleted int     `json:"deleted"`
	Floor   float64 `json:"floor"`
}

func (s *Server) handleDecay(w http.ResponseWriter, r *http.Request) {
	var req decayRequest
	if r.ContentLength != 0 {
		if !s.decodeJSON(w, r, &req) {
			return
		}
	}
	floor := s.decayFloor
	if req.Floor != nil {
		floor = *req.Floor
		if floor < -1 || floor > 1 {
			s.writeError(w, http.StatusUnprocessableEntity, "invalid_floor",
				fmt.Sprintf("floor %v outside [-1, 1]", floor), nil)
			return
		}
	}
	decayed, deleted, err := s.sys.Decay(time.Now(), floor)
	if err != nil {
		s.internalError(w, r, "decay", err)
		return
	}
	s.writeJSON(w, http.StatusOK, decayResponse{Decayed: decayed, Deleted: deleted, Floor: floor})
}

// checkpointResponse acknowledges an admin-triggered checkpoint.
type checkpointResponse struct {
	Seq    uint64 `json:"seq"`
	Bytes  int64  `json:"bytes"`
	Status string `json:"status"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.sys.Checkpoint(r.Context())
	if err != nil {
		if errors.Is(err, neogeo.ErrNoDataDir) {
			s.writeError(w, http.StatusUnprocessableEntity, "checkpoint_unconfigured",
				"the system has no data directory; start it with -data-dir to enable checkpoints", nil)
			return
		}
		s.internalError(w, r, "checkpoint", err)
		return
	}
	s.writeJSON(w, http.StatusOK, checkpointResponse{Seq: info.Seq, Bytes: info.Bytes, Status: "written"})
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	Gazetteer   gazetteerJSON            `json:"gazetteer"`
	Queue       neogeo.QueueStats        `json:"queue"`
	Collections map[string]int           `json:"collections"`
	Shards      shardsJSON               `json:"shards"`
	Checkpoint  checkpointJSON           `json:"checkpoint"`
	Feedback    neogeo.FeedbackStats     `json:"feedback"`
	Decay       neogeo.DecayStats        `json:"decay"`
	Cache       neogeo.CacheStats        `json:"cache"`
	Subs        neogeo.SubscriptionStats `json:"subscriptions"`
	Traces      neogeo.TraceStats        `json:"traces"`
}

type gazetteerJSON struct {
	Entries int `json:"entries"`
	Names   int `json:"names"`
}

type shardsJSON struct {
	Count   int   `json:"count"`
	Records []int `json:"records"`
}

// checkpointJSON is the durability snapshot: whether checkpointing is
// configured, how many images this process wrote, and the newest
// image's identity and age (null until one exists).
type checkpointJSON struct {
	Enabled        bool     `json:"enabled"`
	Count          int      `json:"count"`
	LastSeq        uint64   `json:"last_seq"`
	LastBytes      int64    `json:"last_bytes"`
	LastAgeSeconds *float64 `json:"last_age_seconds"`
}

func checkpointBody(st neogeo.CheckpointStats) checkpointJSON {
	out := checkpointJSON{
		Enabled:   st.Enabled,
		Count:     st.Count,
		LastSeq:   st.LastSeq,
		LastBytes: st.LastBytes,
	}
	if st.LastSeq > 0 {
		age := st.LastAge.Seconds()
		out.LastAgeSeconds = &age
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Stats()
	s.writeJSON(w, http.StatusOK, statsResponse{
		Gazetteer:   gazetteerJSON{Entries: st.GazetteerEntries, Names: st.GazetteerNames},
		Queue:       st.Queue,
		Collections: st.Collections,
		Shards:      shardsJSON{Count: st.Shards, Records: st.ShardRecords},
		Checkpoint:  checkpointBody(st.Checkpoint),
		Feedback:    st.Feedback,
		Decay:       st.Decay,
		Cache:       st.Cache,
		Subs:        st.Subscriptions,
		Traces:      st.Traces,
	})
}

// healthResponse is the GET /healthz body: liveness plus the signals an
// orchestrator acts on — queue health, shard balance, durability state,
// and the reasons behind a degraded status.
type healthResponse struct {
	Status     string            `json:"status"`
	Reasons    []string          `json:"reasons,omitempty"`
	Queue      neogeo.QueueStats `json:"queue"`
	Shards     []int             `json:"shards"`
	Checkpoint checkpointJSON    `json:"checkpoint"`
}

// health decides the service's status from a stats snapshot: degraded
// when messages have dead-lettered (contributions were dropped), when
// the queue-WAL diverged on the dead-letter path, when pending
// messages have sat without any acknowledgement progress for longer
// than the stall window (the drain loop is wedged or not running), or
// when durability has gone stale — the last checkpoint attempt failed,
// or the newest image is more than twice the checkpoint interval old
// (the loop stopped making progress).
func (s *Server) health(st neogeo.Stats, now time.Time) (status string, reasons []string) {
	s.progressMu.Lock()
	progress := st.Queue.Acked + st.Queue.DeadLettered
	if !s.progressSeen || progress != s.progressCount || st.Queue.Pending == 0 {
		s.progressSeen = true
		s.progressCount = progress
		s.progressMarkAt = now
	}
	stalled := st.Queue.Pending > 0 && now.Sub(s.progressMarkAt) >= s.stallAfter
	s.progressMu.Unlock()

	if st.Queue.DeadLettered > 0 {
		reasons = append(reasons, "dead_letters")
	}
	if st.Queue.WALAppendErrors > 0 {
		reasons = append(reasons, "wal_append_errors")
	}
	if stalled {
		reasons = append(reasons, "queue_stalled")
	}
	if s.checkpointStale(st.Checkpoint) {
		reasons = append(reasons, "checkpoint_stale")
	}
	if len(reasons) > 0 {
		return "degraded", reasons
	}
	return "ok", nil
}

// checkpointStale reports whether the durability subsystem has fallen
// behind: the most recent checkpoint attempt failed, or periodic
// checkpoints are configured, at least one image exists, and the
// newest one is more than twice the interval old. Staleness by age is
// only judged against this server's own loop cadence — a server run
// without an interval checkpoints on demand and is never "late".
func (s *Server) checkpointStale(ck neogeo.CheckpointStats) bool {
	if !ck.Enabled {
		return false
	}
	if ck.LastError != "" {
		return true
	}
	return s.ckptInterval > 0 && ck.LastSeq > 0 && ck.LastAge > 2*s.ckptInterval
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Stats()
	status, reasons := s.health(st, time.Now())
	code := http.StatusOK
	if status != "ok" {
		// 503 so orchestrators keying on the status code act without
		// parsing the body.
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, healthResponse{
		Status:     status,
		Reasons:    reasons,
		Queue:      st.Queue,
		Shards:     st.ShardRecords,
		Checkpoint: checkpointBody(st.Checkpoint),
	})
}

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Detail carries condition-specific fields (the classification for
	// not_a_question).
	Detail map[string]any `json:"detail,omitempty"`
}

// internalError logs the real failure and serves a generic envelope:
// internal error strings name pipeline paths and shard layouts, which
// belong in the operator's log, not on the wire.
func (s *Server) internalError(w http.ResponseWriter, r *http.Request, op string, err error) {
	s.log.Error("server: request failed", "op", op, "trace", obs.Trace(r.Context()), "err", err)
	s.writeError(w, http.StatusInternalServerError, "internal", "internal error", nil)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string, detail map[string]any) {
	s.writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: message, Detail: detail}})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is gone; all that's left is to record why the
		// body broke off (usually the client hanging up mid-response).
		s.log.Warn("server: writing response", "err", err)
	}
}

// decodeJSON reads a JSON body strictly (exactly one value, unknown
// fields rejected, at most 1 MiB), writing a 400 and returning false on
// failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("malformed JSON body: %v", err), nil)
		return false
	}
	return true
}
