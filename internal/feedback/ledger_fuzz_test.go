package feedback

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/durable"
)

// scanLedger replays data through the shared log scanner with the header
// and decoder OpenFileLedger uses.
func scanLedger(data []byte) ([]Entry, int64, error) {
	var entries []Entry
	end, err := durable.Scan(bytes.NewReader(data), ledgerHeader, durable.JSON(func(e Entry) { entries = append(entries, e) }))
	return entries, end, err
}

// FuzzLedgerScan checks the header-line path of the shared log — the
// feedback ledger's — under arbitrary corruption:
//
//  1. never panics; errors exactly when non-empty input lacks the header;
//  2. otherwise the valid prefix is empty (an empty log) or runs from
//     the header to a newline, within the input;
//  3. rescanning the valid prefix is idempotent;
//  4. an entry appended after the valid prefix (after the header, for an
//     empty log — what Open writes first) replays as one more entry.
func FuzzLedgerScan(f *testing.F) {
	entry := `{"seq":1,"at":"2011-04-01T09:00:00Z","verdict":{"record_id":4,"kind":"confirm","source":"u"}}` + "\n"
	f.Add([]byte(nil))
	f.Add([]byte(ledgerHeader))
	f.Add([]byte(ledgerHeader + entry + entry))
	f.Add([]byte(ledgerHeader + entry + `{"seq":2,"verdict":{"rec`)) // torn
	f.Add([]byte(ledgerHeader + entry[:len(entry)-1]))               // no newline
	f.Add([]byte(ledgerHeader + "\n" + entry))                       // blank line
	f.Add([]byte(ledgerHeader[:5]))                                  // torn header
	f.Add([]byte("neogeo-feedback v2\n" + entry))                    // foreign header
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, end, err := scanLedger(data)
		if hasHeader := bytes.HasPrefix(data, []byte(ledgerHeader)); len(data) > 0 && !hasHeader {
			if err == nil {
				t.Fatal("accepted input without the header")
			}
			return
		}
		if err != nil {
			t.Fatalf("scan errored on in-memory input: %v", err)
		}
		if len(data) > 0 && (end < int64(len(ledgerHeader)) || end > int64(len(data)) || data[end-1] != '\n') {
			t.Fatalf("valid prefix [0,%d) of %d bytes does not run from the header to a newline", end, len(data))
		}

		prefix := data[:end]
		entries2, end2, err := scanLedger(prefix)
		if err != nil || end2 != end || len(entries2) != len(entries) {
			t.Fatalf("rescan: %d entries to %d, err %v; first scan %d entries to %d", len(entries2), end2, err, len(entries), end)
		}
		for i := range entries {
			a, _ := json.Marshal(entries[i])
			b, _ := json.Marshal(entries2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("rescan changed entry %d: %s != %s", i, a, b)
			}
		}

		grown := append([]byte(nil), prefix...)
		if len(grown) == 0 {
			grown = []byte(ledgerHeader)
		}
		grown = append(append(grown, entry[:len(entry)-1]...), '\n')
		entries3, end3, err := scanLedger(grown)
		if err != nil || end3 != int64(len(grown)) || len(entries3) != len(entries)+1 {
			t.Fatalf("append after the valid prefix: %d entries to %d of %d, err %v", len(entries3), end3, len(grown), err)
		}
		if last := entries3[len(entries3)-1]; last.Seq != 1 || last.Verdict.RecordID != 4 {
			t.Fatalf("appended entry replayed as %+v", last)
		}
	})
}
