package coordinator

import "repro/internal/obs"

// Pipeline metric families. Stage timings split where a message's wall
// time goes (the IE front half, the QA answer path, the per-lane
// integration batches); the transit histogram measures the full
// enqueue→acknowledge journey the slow-outcome log thresholds against;
// batch sizes per lane show whether the group commit is actually
// amortizing. Series for the fixed stage labels are created eagerly so
// /metrics shows them before the first message flows.
var (
	mStageSeconds = obs.Default().Histogram("neogeo_pipeline_stage_seconds",
		"Pipeline stage wall time per message (extract includes classify+NER+disambiguate; integrate is per batch).",
		nil, "stage")
	stageExtract   = mStageSeconds.With("extract")
	stageAnswer    = mStageSeconds.With("answer")
	stageIntegrate = mStageSeconds.With("integrate")

	mBatchMessages = obs.Default().Histogram("neogeo_pipeline_batch_messages",
		"Messages folded into one integration batch / group-committed ack, per lane.",
		obs.ExpBuckets(1, 2, 8), "lane")

	mTransitSeconds = obs.Default().Histogram("neogeo_pipeline_transit_seconds",
		"Full pipeline transit per message: enqueue to acknowledged.", nil).With()

	mMessagesTotal = obs.Default().Counter("neogeo_pipeline_messages_total",
		"Messages leaving the pipeline, by result.", "result")
	messagesOK  = mMessagesTotal.With("ok")
	messagesErr = mMessagesTotal.With("error")

	mAskSeconds = obs.Default().Histogram("neogeo_ask_seconds",
		"Synchronous ask-path latency end to end (classify+extract+QA).", nil).With()
)
