package feedback

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/durable"
)

// Ledger is the append-only verdict log. Appends are durable before
// Submit acknowledges a verdict; the log replays at boot so feedback
// accepted before a crash is never lost.
type Ledger interface {
	// Append writes one entry durably.
	Append(Entry) error
	// Close releases the log.
	Close() error
}

// ledgerHeader heads the ledger file; entries follow as JSON lines.
const ledgerHeader = "neogeo-feedback v1\n"

// FileLedger is the durable ledger: a durable.Log with a header line and
// one JSON entry per line, fsynced per append. A torn trailing line from
// a crash mid-append is truncated away at open — the verdict was never
// acknowledged, so dropping it is correct.
type FileLedger struct {
	log *durable.Log
}

// OpenFileLedger opens (creating if needed) the ledger at path and
// returns it along with every complete entry already in it, in order.
func OpenFileLedger(path string) (*FileLedger, []Entry, error) {
	var entries []Entry
	log, err := durable.Open(path, ledgerHeader, durable.JSON(func(e Entry) { entries = append(entries, e) }))
	if err != nil {
		return nil, nil, fmt.Errorf("feedback: opening ledger: %w", err)
	}
	return &FileLedger{log: log}, entries, nil
}

// Append implements Ledger: one fsynced JSON line per entry.
func (l *FileLedger) Append(e Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("feedback: encoding ledger entry %d: %w", e.Seq, err)
	}
	if err := l.log.Append(data); err != nil {
		return fmt.Errorf("feedback: appending ledger entry %d: %w", e.Seq, err)
	}
	return nil
}

// Close implements Ledger.
func (l *FileLedger) Close() error { return l.log.Close() }

// MemLedger is the in-memory ledger used when the system has no data
// directory: verdicts still sequence and apply, they just do not
// survive a restart (nothing else does either).
type MemLedger struct {
	mu      sync.Mutex
	entries []Entry
}

// NewMemLedger returns an empty in-memory ledger.
func NewMemLedger() *MemLedger { return &MemLedger{} }

// Append implements Ledger.
func (l *MemLedger) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
	return nil
}

// Entries returns a copy of everything appended (tests).
func (l *MemLedger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// Close implements Ledger.
func (l *MemLedger) Close() error { return nil }
