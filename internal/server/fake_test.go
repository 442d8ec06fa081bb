package server

import (
	"context"
	"iter"
	"sync"
	"time"

	neogeo "repro"
)

// fakeSystem scripts the System surface so handler tests can pin
// operational states the real pipeline reaches only under failure —
// dead-lettered messages, wedged queues, checkpoint errors — and record
// what the background loops invoked.
type fakeSystem struct {
	mu          sync.Mutex
	stats       neogeo.Stats
	submitErr   error
	askErr      error
	askPanic    bool
	ckptErr     error
	feedbackErr error
	ckptSeq     uint64
	ckptCalls   int
	decayCalls  int
	drainCalls  int
	flushCalls  int
	feedbackSeq int64

	subscribeErr error
	openErr      error
	unsubErr     error
	subIDs       []string
	unsubIDs     []string

	// lastFeedback and lastSub record what the handlers decoded, so wire
	// tests can assert the request bodies arrive intact.
	lastFeedback neogeo.Feedback
	lastSub      neogeo.Subscription
}

func (f *fakeSystem) Submit(ctx context.Context, body, source string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.submitErr != nil {
		return 0, f.submitErr
	}
	return 1, nil
}

func (f *fakeSystem) Ask(ctx context.Context, question, source string) (*neogeo.Answer, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.askPanic {
		panic("fakeSystem: scripted Ask panic")
	}
	if f.askErr != nil {
		return nil, f.askErr
	}
	return &neogeo.Answer{Text: "ok"}, nil
}

func (f *fakeSystem) Stats() neogeo.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *fakeSystem) Drain(ctx context.Context, limit int) iter.Seq2[*neogeo.Outcome, error] {
	f.mu.Lock()
	f.drainCalls++
	f.mu.Unlock()
	return func(yield func(*neogeo.Outcome, error) bool) {}
}

func (f *fakeSystem) Checkpoint(ctx context.Context) (neogeo.CheckpointInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ckptErr != nil {
		return neogeo.CheckpointInfo{}, f.ckptErr
	}
	f.ckptCalls++
	f.ckptSeq++
	return neogeo.CheckpointInfo{Seq: f.ckptSeq, Bytes: 128}, nil
}

func (f *fakeSystem) Decay(now time.Time, floor float64) (int, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.decayCalls++
	return 1, 0, nil
}

func (f *fakeSystem) Feedback(ctx context.Context, fb neogeo.Feedback) (neogeo.FeedbackReceipt, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.feedbackErr != nil {
		return neogeo.FeedbackReceipt{}, f.feedbackErr
	}
	f.feedbackSeq++
	f.lastFeedback = fb
	return neogeo.FeedbackReceipt{Seq: f.feedbackSeq}, nil
}

func (f *fakeSystem) FlushFeedback(ctx context.Context) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushCalls++
	return 0, nil
}

func (f *fakeSystem) Subscribe(ctx context.Context, sub neogeo.Subscription) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.subscribeErr != nil {
		return "", f.subscribeErr
	}
	id := "sub1"
	f.lastSub = sub
	f.subIDs = append(f.subIDs, id)
	return id, nil
}

func (f *fakeSystem) Unsubscribe(ctx context.Context, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unsubErr != nil {
		return f.unsubErr
	}
	f.unsubIDs = append(f.unsubIDs, id)
	return nil
}

// OpenSubscription returns a zero-value stream on success: its nil
// channel never yields, so Next always runs into the caller's timeout —
// exactly the shape a heartbeat test needs.
func (f *fakeSystem) OpenSubscription(ctx context.Context, id string) (*neogeo.SubscriptionStream, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.openErr != nil {
		return nil, f.openErr
	}
	return &neogeo.SubscriptionStream{}, nil
}

func (f *fakeSystem) counts() (ckpt, decay, drain int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ckptCalls, f.decayCalls, f.drainCalls
}
