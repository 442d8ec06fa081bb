package coordinator

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/extract"
	"repro/internal/mq"
	"repro/internal/obs"
)

// DrainEach processes queued messages through a three-stage concurrent
// pipeline until the queue is empty, limit messages have been dispatched
// (limit <= 0 means no limit), or ctx is cancelled:
//
//	caller (dispatch + emit) -> worker pool -> integration lanes
//
// The calling goroutine leases messages from the queue; the worker pool
// (SetWorkers, default GOMAXPROCS) runs classification, extraction and
// question answering in parallel; and one integration-lane goroutine per
// Integrator lane folds the workers' templates into amortized database
// batches of up to integrateBatch messages, acknowledging each batch
// with one group-committed queue operation. Workers route each message's
// template group to its lane (Integrator.Route), so lanes for different
// shards commit batches and group-ack in parallel: the pipeline's tail
// scales out with the store.
//
// Every dispatched message comes back as exactly one completion on a
// channel only the calling goroutine reads, and emit runs there — never
// on a pipeline goroutine — once per finished message: (outcome, nil) on
// success, (nil, err) on failure, in completion order, not queue order.
// Results stream, so a million-message drain never buffers every outcome.
// Failed messages are negatively acknowledged for redelivery and
// dead-letter after the queue's attempt limit. The drain is over when the
// queue is empty and none of this call's own messages is outstanding, so
// any number of DrainEach calls may share a queue; they compete for
// messages and each returns on its own.
//
// If emit panics the panic reaches the caller after the wind-down: no
// lease is left stranded.
//
// Stored certainties are timing-dependent here (extraction reads the
// source-trust model that integration writes); ProcessOne is the
// deterministic reference.
func (c *Coordinator) DrainEach(ctx context.Context, limit int, emit func(*Outcome, error)) {
	jobs := make(chan mq.Message)
	// A lane hands back a whole batch of completions without a rendezvous
	// per message.
	done := make(chan completion, integrateBatch)
	// Each lane's buffer must fit a full batch on top of one in-flight
	// job per worker, or the group commit could never amortize past the
	// worker count.
	lanes := make([]chan integrationJob, c.di.Lanes())
	for i := range lanes {
		lanes[i] = make(chan integrationJob, c.workers+integrateBatch)
	}

	var workersWG sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			for m := range jobs {
				c.workOne(ctx, m, lanes, done)
			}
		}()
	}
	var lanesWG sync.WaitGroup
	for i := range lanes {
		lanesWG.Add(1)
		go func(lane int, integ <-chan integrationJob) {
			defer lanesWG.Done()
			c.runIntegrator(ctx, lane, integ, done)
		}(i, lanes[i])
	}

	var (
		held        mq.Message // leased, not yet handed to a worker
		holding     bool
		outstanding int // handed to a worker, completion not yet received
	)
	// The wind-down, on every exit including a panic in emit: return the
	// held lease, let messages already in the pipeline finish (outcomes
	// discarded), then join the workers and lanes.
	defer func() {
		if holding {
			_ = c.queue.Nack(held.ID)
		}
		close(jobs)
		for ; outstanding > 0; outstanding-- {
			<-done
		}
		workersWG.Wait()
		for _, integ := range lanes {
			close(integ)
		}
		lanesWG.Wait()
	}()

	for dispatched := 0; ; {
		if !holding && (limit <= 0 || dispatched < limit) && ctx.Err() == nil {
			if held, holding = c.queue.Dequeue(); holding {
				dispatched++
			}
		}
		// Nothing leased and nothing outstanding: every nack of ours
		// happened before the Dequeue above, so the queue holds nothing
		// more for this drain (or it may take no more).
		if !holding && outstanding == 0 {
			return
		}
		var send chan<- mq.Message
		var cancelled <-chan struct{}
		if holding {
			send, cancelled = jobs, ctx.Done()
		}
		select {
		case send <- held:
			holding = false
			outstanding++
		case d := <-done:
			outstanding--
			if d.out != nil || d.err != nil {
				emit(d.out, d.err)
			}
		case <-cancelled:
			_ = c.queue.Nack(held.ID)
			holding = false
		}
	}
}

// completion is the one message every dispatched message sends back to
// the draining goroutine once its lease is settled: an outcome (acked),
// an error (nacked), or the zero value for a lease returned without
// anything to report.
type completion struct {
	out *Outcome
	err error
}

// integrationJob is one message handed from a worker to an integration
// lane: its lease, its partially filled outcome, and any templates still
// to integrate (empty for request messages, whose acknowledgement simply
// joins the lane's group commit).
type integrationJob struct {
	msg  mq.Message
	out  *Outcome
	tpls []extract.Template
}

// workOne runs the parallel front half of one message's workflow, then
// routes the message to its integration lane, which owns integration and
// acknowledgement — every successful message is acked by group commit.
// Messages with no templates (requests) only need an acknowledgement;
// they spread across lanes by message ID so no single lane becomes the
// ack bottleneck.
func (c *Coordinator) workOne(ctx context.Context, m mq.Message, lanes []chan integrationJob, done chan<- completion) {
	// The span covers only the front half (extract/answer); integration
	// happens later in a lane batch and is traced as its own
	// integrate_batch timeline.
	ctx, sp := messageSpan(ctx, m)
	out, tpls, err := c.front(ctx, m)
	sp.SetError(err)
	sp.End()
	if err != nil {
		done <- completion{err: c.fail(m.ID, err)}
		return
	}
	lane := 0
	if len(tpls) > 0 {
		lane = c.di.Route(tpls)
	} else if len(lanes) > 1 && m.ID > 0 {
		lane = int(m.ID % int64(len(lanes)))
	}
	lanes[lane] <- integrationJob{msg: m, out: out, tpls: tpls}
}

// runIntegrator is one lane's single-goroutine batching stage: it
// greedily collects the lane's pending jobs up to the batch cap,
// integrates each batch under one acquisition of the lane's store lock,
// and acknowledges the batch's messages with one group-committed ack.
func (c *Coordinator) runIntegrator(ctx context.Context, lane int, integ <-chan integrationJob, done chan<- completion) {
	for {
		job, ok := <-integ
		if !ok {
			return
		}
		batch := []integrationJob{job}
	collect:
		for len(batch) < integrateBatch {
			select {
			case next, ok := <-integ:
				if !ok {
					break collect
				}
				batch = append(batch, next)
			default:
				break collect
			}
		}
		c.flushBatch(ctx, lane, batch, done)
	}
}

func (c *Coordinator) flushBatch(ctx context.Context, lane int, batch []integrationJob, done chan<- completion) {
	mBatchMessages.With(strconv.Itoa(lane)).Observe(float64(len(batch)))
	groups := make([][]extract.Template, len(batch))
	for i, job := range batch {
		groups[i] = job.tpls
	}
	_, st := obs.Stage(ctx, spanIntegrateBatch, stageIntegrate)
	st.SetInt("lane", lane)
	st.SetInt("messages", len(batch))
	results := c.di.IntegrateGroups(lane, groups)
	st.End(nil)

	ackIDs := make([]int64, 0, len(batch))
	completed := make([]integrationJob, 0, len(batch))
	for i, job := range batch {
		if err := foldGroup(job.out, results[i]); err != nil {
			done <- completion{err: c.fail(job.msg.ID, err)}
			continue
		}
		ackIDs = append(ackIDs, job.msg.ID)
		completed = append(completed, job)
	}
	if len(ackIDs) == 0 {
		return
	}
	acked, ackErr := c.queue.AckBatch(ackIDs)
	// Record outcomes only for messages the group commit really
	// acknowledged; the rest go back for redelivery (a WAL failure acks
	// nothing) or expired mid-flight and will be redelivered anyway. The
	// commit's error rides on the first of them, the others complete
	// silently: one report per failed commit, one completion per message.
	ackedSet := make(map[int64]bool, len(acked))
	for _, id := range acked {
		ackedSet[id] = true
	}
	for _, job := range completed {
		if ackedSet[job.msg.ID] {
			c.finish(job.msg, job.out)
			done <- completion{out: job.out}
			continue
		}
		_ = c.queue.Nack(job.msg.ID)
		done <- completion{err: ackErr}
		ackErr = nil
	}
}
