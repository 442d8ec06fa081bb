package mq

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/durable"
)

// walSeeds are realistic log contents: a clean log, an empty log, a
// dead-letter log, an ack line in the older format that carried a zero
// message, and several torn-tail shapes (cut mid-JSON, missing the final
// newline, garbage after a valid prefix).
func walSeeds() [][]byte {
	enq := `{"op":"enq","msg":{"ID":1,"Body":"CROWD near bridge","Source":"+1555","Tag":"geo"}}` + "\n"
	ack := `{"op":"ack","id":1}` + "\n"
	dead := `{"op":"dead","id":2,"msg":{"ID":2,"Body":"poison"}}` + "\n"
	oldAck := `{"op":"ack","id":1,"msg":{"ID":0,"Body":"","Source":"","Received":"0001-01-01T00:00:00Z","Attempts":0,"Tag":""}}` + "\n"
	return [][]byte{
		nil,
		[]byte(enq),
		[]byte(enq + ack),
		[]byte(enq + ack + dead),
		[]byte(enq + `{"op":"ack",`),        // cut mid-entry
		[]byte(enq + ack[:len(ack)-1]),      // missing final newline
		[]byte(enq + "\x00\xff not json\n"), // binary garbage line
		[]byte("\n\n" + enq),                // blank lines are tolerated
		[]byte(`{"op":"enq","msg":{}}`),     // single entry, no newline
		bytes.Repeat([]byte(enq), 64),       // longer clean log
		[]byte(enq + oldAck),
	}
}

// scanWAL replays data through the shared log scanner with the decoder
// Open uses, returning the entries and the offset appends resume at.
func scanWAL(data []byte) ([]walEntry, int64, error) {
	var entries []walEntry
	end, err := durable.Scan(bytes.NewReader(data), "", durable.JSON(func(e walEntry) { entries = append(entries, e) }))
	return entries, end, err
}

// FuzzWALScan checks the replay invariants that recovery (and the
// durability checkpointing built on LSNs) depend on, under arbitrary
// corruption:
//
//  1. never panics, never errors on in-memory input;
//  2. 0 <= validEnd <= len(data), and the valid prefix ends exactly at
//     a newline (or is empty) — so truncating there leaves a log whose
//     next append starts a fresh line;
//  3. rescanning the valid prefix is idempotent: same entries, same
//     validEnd — the second boot after a torn-tail truncation replays
//     exactly what the first one did;
//  4. appending a well-formed entry after the valid prefix extends the
//     replay by exactly that entry — truncation never poisons appends.
func FuzzWALScan(f *testing.F) {
	for _, seed := range walSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, validEnd, err := scanWAL(data)
		if err != nil {
			t.Fatalf("scanWAL errored on in-memory input: %v", err)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d out of range [0,%d]", validEnd, len(data))
		}
		if validEnd > 0 && data[validEnd-1] != '\n' {
			t.Fatalf("valid prefix does not end at a newline: data[%d-1] = %q", validEnd, data[validEnd-1])
		}

		prefix := data[:validEnd]
		entries2, validEnd2, err := scanWAL(prefix)
		if err != nil {
			t.Fatalf("rescanning valid prefix errored: %v", err)
		}
		if validEnd2 != validEnd {
			t.Fatalf("rescan moved validEnd: %d != %d", validEnd2, validEnd)
		}
		if len(entries2) != len(entries) {
			t.Fatalf("rescan changed entry count: %d != %d", len(entries2), len(entries))
		}
		for i := range entries {
			a, _ := json.Marshal(entries[i])
			b, _ := json.Marshal(entries2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("rescan changed entry %d: %s != %s", i, a, b)
			}
		}

		appended, err := json.Marshal(walEntry{Op: opAck, ID: 99})
		if err != nil {
			t.Fatal(err)
		}
		grown := append(append(append([]byte(nil), prefix...), appended...), '\n')
		entries3, validEnd3, err := scanWAL(grown)
		if err != nil {
			t.Fatalf("scanning grown log errored: %v", err)
		}
		if len(entries3) != len(entries)+1 {
			t.Fatalf("append after truncation point not replayed: %d entries, want %d", len(entries3), len(entries)+1)
		}
		if validEnd3 != int64(len(grown)) {
			t.Fatalf("grown log has a torn tail: validEnd %d, size %d", validEnd3, len(grown))
		}
		last := entries3[len(entries3)-1]
		if last.Op != opAck || last.ID != 99 {
			t.Fatalf("appended entry replayed wrong: %+v", last)
		}
	})
}
