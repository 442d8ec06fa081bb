package mq

// The write-ahead log is a durable.Log of JSON walEntry records, one per
// line, with no header: enqueue, ack and dead-letter entries. Replay
// reconstructs the set of unacknowledged messages plus the dead-letter
// list. Each entry has an implicit log sequence number (1-based position
// in the file); the durability subsystem's checkpoints record the LSN
// current when their snapshot was taken, so recovery can re-integrate
// exactly the messages acknowledged after the image.
//
// Logs written before dead letters had their own op record them as
// acks; replaying such a log loses the dead-letter list, and under
// WithReplayAckedAfter those entries replay like any other ack (the
// poison message gets a fresh attempt cycle) — the compatibility cost
// of pointing a durable boot at the old format.

type walOp string

const (
	opEnqueue walOp = "enq"
	opAck     walOp = "ack"
	// opDead marks a message that exhausted its delivery attempts: like
	// an ack it is never redelivered, but replay rebuilds it into the
	// dead-letter list instead of dropping it, so Stats().DeadLettered
	// and DeadLetters() survive a restart.
	opDead walOp = "dead"
)

// walEntry is one log line. Msg is set on enqueues only; as a pointer its
// omitempty drops it from ack and dead lines (encoding/json never omits a
// struct value). Lines that still carry a zero "msg" object replay the
// same, since acks and dead letters read only ID.
type walEntry struct {
	Op  walOp    `json:"op"`
	ID  int64    `json:"id,omitempty"`
	Msg *Message `json:"msg,omitempty"`
}
