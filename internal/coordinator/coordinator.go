// Package coordinator is the paper's Modules Coordinator (MC): "the
// controller of the whole system … responsible for controlling the work
// and data flow between different services. It receives the user
// contributions and requests, and sends activation messages to the
// intended services according to set of workflow rules."
//
// The workflow rules are data, not code: a message type maps to a list of
// named steps, each dispatched to a service. Every activation is recorded
// as a Signal, mirroring the signal-passing protocol the paper describes.
package coordinator

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/mq"
	"repro/internal/obs"
	"repro/internal/qa"
)

// Step names a workflow action.
type Step string

// Workflow steps.
const (
	StepClassify  Step = "classify"
	StepExtract   Step = "extract"
	StepIntegrate Step = "integrate"
	StepAnswer    Step = "answer"
	// StepTagError records a failed attempt to tag a message on the MQ
	// with its classified type; tagging is advisory, so the workflow
	// continues, but the failure is kept in the signal log.
	StepTagError Step = "tag-error"
)

// Span names of the coordinator's stages (bounded constants; variable
// data — message IDs, lanes, counts — rides in span attributes).
const (
	spanPipelineMessage = "pipeline_message"
	spanExtract         = "extract"
	spanAnswer          = "answer"
	spanIntegrate       = "integrate"
	spanIntegrateBatch  = "integrate_batch"
)

// Rules maps a message type to its step sequence — the paper's Work Flow
// Rules (WFR) module.
type Rules map[extract.MessageType][]Step

// DefaultRules reproduces the paper's two workflows: informative messages
// flow IE → DI; requests flow IE → QA.
func DefaultRules() Rules {
	return Rules{
		extract.TypeInformative: {StepClassify, StepExtract, StepIntegrate},
		extract.TypeRequest:     {StepClassify, StepExtract, StepAnswer},
	}
}

// Signal is one recorded module activation.
type Signal struct {
	MessageID int64
	From, To  string
	Step      Step
	At        time.Time
	// Note carries diagnostic detail for error signals (StepTagError).
	Note string
}

// Outcome summarises the processing of one message.
type Outcome struct {
	MessageID int64
	Type      extract.MessageType
	TypeP     float64
	Domain    string
	// Inserted/Merged count integration actions for informative messages.
	Inserted, Merged int
	// Answer is the QA reply for request messages.
	Answer string
	// Query is the formulated DB query for request messages.
	Query string
	// Response is the QA service's full structured answer for request
	// messages — generated text, formulated query and the ranked results
	// with their certainties — of which Answer/Query are the flattened
	// legacy projection. Nil for informative messages.
	Response *qa.Answer
	// Trace is the observability trace ID the message carried through
	// the queue (empty for untraced submissions).
	Trace string
}

// NotAQuestionError reports that a message handed to the synchronous ask
// path was classified informative rather than as a request, carrying what
// the classifier saw so callers can branch (and surface the probability)
// without parsing error strings.
type NotAQuestionError struct {
	// Type is the classified message type (extract.TypeInformative).
	Type extract.MessageType
	// TypeP is the classifier's confidence in that type.
	TypeP float64
}

func (e *NotAQuestionError) Error() string {
	return fmt.Sprintf("coordinator: message classified %s (p=%.2f), not a question", e.Type, e.TypeP)
}

// Integrator is the integration sink of the coordinator: a set of
// independent lanes, each owning one store. The single-store system has
// one lane (SingleLane); a sharded system has one lane per shard
// (shard.Integrator). The coordinator serialises IntegrateGroups calls
// per lane within one drain (DrainEach runs exactly one goroutine per
// lane); calls from concurrent drains, or from ProcessOne beside a drain,
// are serialised by the lane's own store lock. Distinct lanes commit in
// parallel.
type Integrator interface {
	// Lanes is the number of independent integration lanes.
	Lanes() int
	// Route assigns one message's template group to a lane in
	// [0, Lanes()). It must be deterministic so repeated reports about
	// one entity always integrate in the same lane.
	Route(tpls []extract.Template) int
	// IntegrateGroups merges several messages' template groups (one group
	// per message, order preserved within a group) as one amortized batch
	// on the given lane.
	IntegrateGroups(lane int, groups [][]extract.Template) [][]integrate.BatchResult
}

// singleLane adapts the unsharded integration service to the Integrator
// interface: one lane, everything routed to it.
type singleLane struct{ di *integrate.Service }

// SingleLane wraps a single-store integration service as a one-lane
// Integrator — the unsharded configuration.
func SingleLane(di *integrate.Service) Integrator { return singleLane{di: di} }

func (s singleLane) Lanes() int                   { return 1 }
func (s singleLane) Route([]extract.Template) int { return 0 }
func (s singleLane) IntegrateGroups(_ int, groups [][]extract.Template) [][]integrate.BatchResult {
	return s.di.IntegrateGroups(groups)
}

// Coordinator wires the queue to the services.
type Coordinator struct {
	queue *mq.Queue
	ie    *extract.Service
	di    Integrator
	qa    *qa.Service
	rules Rules
	clock func() time.Time

	mu      sync.Mutex
	signals []Signal
	// maxSignals bounds the in-memory signal log.
	maxSignals int

	// workers is the width of DrainEach's worker pool (default GOMAXPROCS).
	workers int
	// batchSize caps how many integration jobs the batching stage folds
	// into one amortized database batch (default 16).
	batchSize int
}

// slowTransit is the enqueue→acknowledged duration past which a
// message's completion logs at warn instead of debug.
const slowTransit = 5 * time.Second

// New wires a coordinator around an Integrator — SingleLane for the
// single-store system, shard.NewIntegrator for a sharded one. A nil
// rules uses DefaultRules.
func New(queue *mq.Queue, ie *extract.Service, di Integrator, ans *qa.Service, rules Rules) (*Coordinator, error) {
	if queue == nil || ie == nil || di == nil || ans == nil {
		return nil, fmt.Errorf("coordinator: nil dependency")
	}
	if di.Lanes() < 1 {
		return nil, fmt.Errorf("coordinator: integrator has %d lanes", di.Lanes())
	}
	if rules == nil {
		rules = DefaultRules()
	}
	return &Coordinator{
		queue:      queue,
		ie:         ie,
		di:         di,
		qa:         ans,
		rules:      rules,
		clock:      time.Now,
		maxSignals: 10000,
		workers:    runtime.GOMAXPROCS(0),
		batchSize:  16,
	}, nil
}

// SetClock overrides the time source (tests).
func (c *Coordinator) SetClock(clock func() time.Time) { c.clock = clock }

// SetWorkers sets the DrainEach worker-pool size; n <= 0 restores
// the default (GOMAXPROCS). Not safe to call while a drain is running.
func (c *Coordinator) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c.workers = n
}

// SetBatchSize caps the integration batching stage; n <= 0 restores the
// default (16). Not safe to call while a drain is running.
func (c *Coordinator) SetBatchSize(n int) {
	if n <= 0 {
		n = 16
	}
	c.batchSize = n
}

// Submit enqueues a user message and returns its queue ID ("Once a
// message is received, it is placed in the MQ"). The trace ID carried
// by ctx (obs.WithTrace) — or minted here when the caller brought none
// — rides in the message envelope so observability follows the message
// across the queue hop.
func (c *Coordinator) Submit(ctx context.Context, body, source string) (int64, error) {
	_, trace := obs.EnsureTrace(ctx)
	id, err := c.queue.EnqueueTraced(body, source, trace)
	if err != nil {
		return 0, err
	}
	c.signal(Signal{MessageID: id, From: "user", To: "MC", Step: "submit"})
	return id, nil
}

// ProcessOne handles the next queued message through its workflow, inline
// on the calling goroutine. ok is false when the queue is empty. Failed
// messages are negatively acknowledged for redelivery; after the queue's
// attempt limit they land in its dead-letter list.
//
// ProcessOne is the deterministic reference engine: each message is
// extracted against exactly the trust model its predecessors' integration
// left behind, so looping it over one history always stores the same
// bytes. DrainEach is the throughput engine and is compared against it.
func (c *Coordinator) ProcessOne(ctx context.Context) (*Outcome, bool, error) {
	m, ok := c.queue.Dequeue()
	if !ok {
		return nil, false, nil
	}
	c.signal(Signal{MessageID: m.ID, From: "MC", To: "IE", Step: StepClassify})
	if m.Trace != "" {
		ctx = obs.WithTrace(ctx, m.Trace)
	}
	ctx, sp := obs.StartSpan(ctx, spanPipelineMessage)
	sp.SetAttr("msg_id", strconv.FormatInt(m.ID, 10))
	out, err := c.process(ctx, m)
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, true, c.fail(m.ID, err)
	}
	if err := c.queue.Ack(m.ID); err != nil {
		return nil, true, err
	}
	c.finish(m, out)
	return out, true, nil
}

// fail returns a message whose workflow errored to the queue for
// redelivery and wraps the error with its ID, in both engines.
func (c *Coordinator) fail(id int64, err error) error {
	_ = c.queue.Nack(id)
	messagesErr.Inc()
	return fmt.Errorf("coordinator: message %d: %w", id, err)
}

// finish records a message's pipeline exit: the enqueue→acknowledged
// transit histogram, the ok counter, a debug outcome line, and the warn
// slow line when transit exceeded slowTransit. Called after the
// acknowledgement succeeds, by both engines.
func (c *Coordinator) finish(m mq.Message, out *Outcome) {
	transit := c.clock().Sub(m.Received)
	mTransitSeconds.Observe(transit.Seconds())
	messagesOK.Inc()
	if transit > slowTransit {
		slog.Warn("slow message transit",
			"trace", m.Trace, "msg_id", m.ID, "type", out.Type,
			"transit", transit, "threshold", slowTransit)
		return
	}
	slog.Debug("message processed",
		"trace", m.Trace, "msg_id", m.ID, "type", out.Type,
		"inserted", out.Inserted, "merged", out.Merged, "transit", transit)
}

// AskDirect answers a question synchronously through the read-only QA
// path, without touching the queue: classification and extraction run
// inline and the request goes straight to the QA service. Because nothing
// is enqueued, AskDirect never races with a concurrent drain over which
// message ProcessOne picks up next — the serving layer's ask endpoint and
// the background drain loop can run side by side. A message classified
// informative returns a *NotAQuestionError carrying the classification.
// The trace ID carried by ctx (obs.WithTrace) labels its log lines.
func (c *Coordinator) AskDirect(ctx context.Context, body, source string) (*qa.Answer, error) {
	askStart := time.Now()
	defer func() {
		// The exemplar links the ask latency bucket to this request's
		// recorded timeline; with tracing off the trace ID is "".
		mAskSeconds.ObserveExemplar(time.Since(askStart).Seconds(), obs.SpanFromContext(ctx).TraceID())
	}()
	exCtx, exSpan := obs.StartSpan(ctx, spanExtract)
	exStart := time.Now()
	ex, err := c.ie.Extract(exCtx, body, source, c.clock())
	stageExtract.Since(exStart)
	exSpan.SetError(err)
	exSpan.End()
	if err != nil {
		return nil, err
	}
	c.signal(Signal{From: "user", To: "IE", Step: StepClassify})
	if ex.Type != extract.TypeRequest {
		return nil, &NotAQuestionError{Type: ex.Type, TypeP: ex.TypeP}
	}
	c.signal(Signal{From: "MC", To: "QA", Step: StepAnswer})
	ansCtx, ansSpan := obs.StartSpan(ctx, spanAnswer)
	ansStart := time.Now()
	ans, err := c.qa.Answer(ansCtx, ex)
	stageAnswer.Since(ansStart)
	ansSpan.SetError(err)
	ansSpan.End()
	if err != nil {
		return nil, err
	}
	if trace := obs.Trace(ctx); trace != "" {
		slog.Debug("ask answered", "trace", trace, "results", len(ans.Results))
	}
	return &ans, nil
}

func (c *Coordinator) process(ctx context.Context, m mq.Message) (*Outcome, error) {
	out, tpls, err := c.prepare(ctx, m)
	if err != nil {
		return nil, err
	}
	if len(tpls) > 0 {
		if err := c.integrateInto(ctx, out, tpls); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepare runs the extraction/classification stages of a message's
// workflow and returns its outcome plus any templates still awaiting
// integration — the parallelizable front half of the pipeline. Request
// messages are answered here (read-only); informative messages hand their
// templates to the caller's integration stage.
func (c *Coordinator) prepare(ctx context.Context, m mq.Message) (*Outcome, []extract.Template, error) {
	now := c.clock()
	exCtx, exSpan := obs.StartSpan(ctx, spanExtract)
	exStart := time.Now()
	ex, err := c.ie.Extract(exCtx, m.Body, m.Source, now)
	stageExtract.Since(exStart)
	exSpan.SetError(err)
	exSpan.End()
	if err != nil {
		return nil, nil, err
	}
	// "A tag is then attached to the message on the MQ indicating its
	// type." Tagging is advisory: a failure (the message vanished from the
	// queue, e.g. after lease expiry and redelivery) is recorded in the
	// signal log rather than aborting the workflow.
	if err := c.queue.Tag(m.ID, string(ex.Type)); err != nil {
		c.signal(Signal{MessageID: m.ID, From: "MQ", To: "MC", Step: StepTagError, Note: err.Error()})
	}

	out := &Outcome{
		MessageID: m.ID,
		Type:      ex.Type,
		TypeP:     ex.TypeP,
		Domain:    ex.Domain,
		Trace:     m.Trace,
	}
	steps, ok := c.rules[ex.Type]
	if !ok {
		return nil, nil, fmt.Errorf("no workflow rule for message type %q", ex.Type)
	}
	var pending []extract.Template
	for _, step := range steps {
		switch step {
		case StepClassify, StepExtract:
			// Already performed by the IE call above; recorded for the
			// signal trail.
			c.signal(Signal{MessageID: m.ID, From: "IE", To: "MC", Step: step})
		case StepIntegrate:
			c.signal(Signal{MessageID: m.ID, From: "MC", To: "DI", Step: step})
			pending = append(pending, ex.Templates...)
		case StepAnswer:
			c.signal(Signal{MessageID: m.ID, From: "MC", To: "QA", Step: step})
			ansCtx, ansSpan := obs.StartSpan(ctx, spanAnswer)
			ansStart := time.Now()
			ans, err := c.qa.Answer(ansCtx, ex)
			stageAnswer.Since(ansStart)
			ansSpan.SetError(err)
			ansSpan.End()
			if err != nil {
				return nil, nil, err
			}
			out.Answer = ans.Text
			out.Query = ans.Query
			out.Response = &ans
		default:
			return nil, nil, fmt.Errorf("unknown workflow step %q", step)
		}
	}
	return out, pending, nil
}

// integrateInto applies a message's templates in order as one amortized
// database batch on their routed lane, stopping at the first integration
// error (templates after a failure are not applied), and folds the
// actions into its outcome.
func (c *Coordinator) integrateInto(ctx context.Context, out *Outcome, tpls []extract.Template) error {
	lane := c.di.Route(tpls)
	_, sp := obs.StartSpan(ctx, spanIntegrate)
	sp.SetInt("lane", lane)
	sp.SetInt("templates", len(tpls))
	defer sp.End()
	defer stageIntegrate.Since(time.Now())
	err := foldGroup(out, c.di.IntegrateGroups(lane, [][]extract.Template{tpls})[0])
	sp.SetError(err)
	return err
}

// foldGroup counts one message's integration actions into its outcome,
// returning the group's error if it stopped early.
func foldGroup(out *Outcome, results []integrate.BatchResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		switch r.Result.Action {
		case integrate.ActionInserted:
			out.Inserted++
		case integrate.ActionMerged:
			out.Merged++
		}
	}
	return nil
}

func (c *Coordinator) signal(s Signal) {
	s.At = c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.signals = append(c.signals, s)
	if len(c.signals) > c.maxSignals {
		c.signals = c.signals[len(c.signals)-c.maxSignals:]
	}
}

// Signals returns a copy of the recorded activation log.
func (c *Coordinator) Signals() []Signal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Signal(nil), c.signals...)
}
