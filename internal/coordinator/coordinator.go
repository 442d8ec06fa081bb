// Package coordinator is the paper's Modules Coordinator (MC): "the
// controller of the whole system … responsible for controlling the work
// and data flow between different services. It receives the user
// contributions and requests, and sends activation messages to the
// intended services according to set of workflow rules."
//
// The paper's two workflows are one branch on the classified message
// type: an informative message flows IE → DI, a request IE → QA. Every
// activation is a span on the message's timeline (pipeline_message →
// extract / answer / integrate, or a lane's integrate_batch), and
// Outcome.Type carries the type the paper tags the queued message with.
package coordinator

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"time"

	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/mq"
	"repro/internal/obs"
	"repro/internal/qa"
)

// Span names of the coordinator's stages (bounded constants; variable
// data — message IDs, lanes, counts — rides in span attributes).
const (
	spanPipelineMessage = "pipeline_message"
	spanExtract         = "extract"
	spanAnswer          = "answer"
	spanIntegrate       = "integrate"
	spanIntegrateBatch  = "integrate_batch"
	spanAskDirect       = "ask_direct"
)

// integrateBatch caps how many messages an integration lane folds into
// one amortized database batch and one group-committed acknowledgement.
const integrateBatch = 16

// Outcome summarises the processing of one message.
type Outcome struct {
	MessageID int64
	Type      extract.MessageType
	TypeP     float64
	Domain    string
	// Inserted/Merged count integration actions for informative messages.
	Inserted, Merged int
	// Response is the QA service's structured answer for request
	// messages — generated text, formulated query and the ranked results
	// with their certainties. Nil for informative messages.
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
// independent lanes, each owning one store — shard.Integrator, with one
// lane per shard. The coordinator serialises IntegrateGroups calls
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

// Coordinator wires the queue to the services.
type Coordinator struct {
	queue *mq.Queue
	ie    *extract.Service
	di    Integrator
	qa    *qa.Service
	clock func() time.Time

	// workers is the width of DrainEach's worker pool (default GOMAXPROCS).
	workers int
}

// slowTransit is the enqueue→acknowledged duration past which a
// message's completion logs at warn instead of debug.
const slowTransit = 5 * time.Second

// New wires a coordinator around an Integrator (shard.NewIntegrator).
func New(queue *mq.Queue, ie *extract.Service, di Integrator, ans *qa.Service) (*Coordinator, error) {
	if queue == nil || ie == nil || di == nil || ans == nil {
		return nil, fmt.Errorf("coordinator: nil dependency")
	}
	if di.Lanes() < 1 {
		return nil, fmt.Errorf("coordinator: integrator has %d lanes", di.Lanes())
	}
	return &Coordinator{
		queue:   queue,
		ie:      ie,
		di:      di,
		qa:      ans,
		clock:   time.Now,
		workers: runtime.GOMAXPROCS(0),
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

// Submit enqueues a user message and returns its queue ID ("Once a
// message is received, it is placed in the MQ"). The trace ID carried
// by ctx (obs.WithTrace) — or minted here when the caller brought none
// — rides in the message envelope so observability follows the message
// across the queue hop.
func (c *Coordinator) Submit(ctx context.Context, body, source string) (int64, error) {
	_, trace := obs.EnsureTrace(ctx)
	return c.queue.EnqueueTraced(body, source, trace)
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
	ctx, sp := messageSpan(ctx, m)
	out, tpls, err := c.front(ctx, m)
	if err == nil && len(tpls) > 0 {
		err = c.integrateInto(ctx, out, tpls)
	}
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

// messageSpan opens a dequeued message's pipeline_message span, under
// the trace ID the message carried across the queue hop.
func messageSpan(ctx context.Context, m mq.Message) (context.Context, *obs.Span) {
	if m.Trace != "" {
		ctx = obs.WithTrace(ctx, m.Trace)
	}
	ctx, sp := obs.StartSpan(ctx, spanPipelineMessage)
	sp.SetAttr("msg_id", strconv.FormatInt(m.ID, 10))
	return ctx, sp
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
	ctx, st := obs.Stage(ctx, spanAskDirect, mAskSeconds)
	// The same front half the queue engines run, on a message that never
	// entered the queue.
	out, _, err := c.front(ctx, mq.Message{Body: body, Source: source})
	if err == nil && out.Response == nil {
		err = &NotAQuestionError{Type: out.Type, TypeP: out.TypeP}
	}
	st.End(err)
	if err != nil {
		return nil, err
	}
	if trace := obs.Trace(ctx); trace != "" {
		slog.Debug("ask answered", "trace", trace, "results", len(out.Response.Results))
	}
	return out.Response, nil
}

// front runs the front half of a message's workflow, shared by
// ProcessOne, the DrainEach workers and AskDirect: extraction, then the
// paper's two workflows as one branch on the classified type. A request
// is answered here, read-only (IE → QA); an informative message returns
// its templates for the caller's integration stage (IE → DI).
func (c *Coordinator) front(ctx context.Context, m mq.Message) (*Outcome, []extract.Template, error) {
	exCtx, exStage := obs.Stage(ctx, spanExtract, stageExtract)
	ex, err := c.ie.Extract(exCtx, m.Body, m.Source, c.clock())
	exStage.End(err)
	if err != nil {
		return nil, nil, err
	}
	out := &Outcome{
		MessageID: m.ID,
		Type:      ex.Type,
		TypeP:     ex.TypeP,
		Domain:    ex.Domain,
		Trace:     m.Trace,
	}
	if ex.Type != extract.TypeRequest {
		return out, ex.Templates, nil
	}
	ansCtx, ansStage := obs.Stage(ctx, spanAnswer, stageAnswer)
	ans, err := c.qa.Answer(ansCtx, ex)
	ansStage.End(err)
	if err != nil {
		return nil, nil, err
	}
	out.Response = &ans
	return out, nil, nil
}

// integrateInto applies a message's templates in order as one amortized
// database batch on their routed lane, stopping at the first integration
// error (templates after a failure are not applied), and folds the
// actions into its outcome.
func (c *Coordinator) integrateInto(ctx context.Context, out *Outcome, tpls []extract.Template) error {
	lane := c.di.Route(tpls)
	_, st := obs.Stage(ctx, spanIntegrate, stageIntegrate)
	st.SetInt("lane", lane)
	st.SetInt("templates", len(tpls))
	err := foldGroup(out, c.di.IntegrateGroups(lane, [][]extract.Template{tpls})[0])
	st.End(err)
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
