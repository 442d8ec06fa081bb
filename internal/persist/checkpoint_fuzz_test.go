package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
	"time"
)

// FuzzCheckpointFile checks the invariants recovery depends on when it
// reads a checkpoint file, under arbitrary corruption:
//
//  1. readCheckpoint never panics;
//  2. an accepted file is exactly its canonical encoding: the header
//     formatted again from the parsed fields, the returned image, and —
//     for v2 — a trailer that is the CRC32 of everything before it, so
//     no flipped bit outside a CRC collision is ever accepted;
//  3. Size is the input's length, and a v1 file's CRC and Created are
//     the whole file's CRC32 and the mtime passed in.
func FuzzCheckpointFile(f *testing.F) {
	v1 := fmt.Sprintf(headerV1, 1, 7) + "blob:old"
	v2 := checkpointBytes(2, 9, "blob:new\nwith a newline")
	f.Add([]byte(nil))
	f.Add([]byte(v1))
	f.Add(v2)
	f.Add(v2[:len(v2)-1])                                                     // torn trailer
	f.Add(append(bytes.Clone(v2[:len(v2)-1]), 0))                             // rotted trailer
	f.Add(checkpointBytes(3, -1, ""))                                         // empty image
	f.Add([]byte(fileMagic + " v2 seq=01 lsn=0 created=0\n\x00\x00\x00\x00")) // non-canonical
	f.Add([]byte(fileMagic + " v3 seq=1 lsn=0\n"))
	f.Add([]byte(fileMagic + " v1 seq=1 lsn=2")) // no newline

	mtime := time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, image, err := readCheckpoint(data, mtime)
		if err != nil {
			return
		}
		if info.Size != int64(len(data)) {
			t.Fatalf("size %d for %d bytes", info.Size, len(data))
		}
		v1 := fmt.Sprintf(headerV1, info.Seq, info.LSN)
		if bytes.HasPrefix(data, []byte(v1)) {
			if want := v1 + string(image); string(data) != want {
				t.Fatalf("v1 file is not its encoding:\n got %q\nwant %q", data, want)
			}
			if info.CRC != crc32.ChecksumIEEE(data) || !info.Created.Equal(mtime) {
				t.Fatalf("v1 info %+v", info)
			}
			return
		}
		body := fmt.Sprintf(headerV2, info.Seq, info.LSN, info.Created.UnixNano()) + string(image)
		want := binary.BigEndian.AppendUint32([]byte(body), crc32.ChecksumIEEE([]byte(body)))
		if !bytes.Equal(data, want) {
			t.Fatalf("v2 file is not its encoding:\n got %q\nwant %q", data, want)
		}
		if info.CRC != crc32.ChecksumIEEE([]byte(body)) {
			t.Fatalf("crc %08x, want %08x", info.CRC, crc32.ChecksumIEEE([]byte(body)))
		}
	})
}
