package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
)

func snapshotDoc(t *testing.T, name, city string) *pxml.Node {
	t.Helper()
	doc, err := pxml.Unmarshal(fmt.Sprintf("<Hotel><Hotel_Name>%s</Hotel_Name><City>%s</City></Hotel>", name, city))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSnapshotRestoreRoundTrip: every record lands back on its original
// shard with its ID, and re-snapshotting the restored store reproduces
// the stream byte-for-byte.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	cities := []struct {
		name string
		lat  float64
		lon  float64
	}{
		{"Berlin", 52.52, 13.40},
		{"Paris", 48.85, 2.35},
		{"Nairobi", -1.29, 36.82},
		{"Tokyo", 35.68, 139.69},
		{"Lagos", 6.52, 3.37},
	}
	for i, c := range cities {
		p, err := geo.NewPoint(c.lat, c.lon)
		if err != nil {
			t.Fatal(err)
		}
		insertRouted(t, s, "Hotels", snapshotDoc(t, fmt.Sprintf("Hotel %d", i), c.name), 0.8, &p)
	}

	var img bytes.Buffer
	if err := s.Snapshot(&img); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	fresh, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := fmt.Sprint(fresh.Balance()), fmt.Sprint(s.Balance()); got != want {
		t.Fatalf("balance %s, want %s", got, want)
	}

	var again bytes.Buffer
	if err := fresh.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img.Bytes()) {
		t.Error("re-snapshot of restored store is not byte-identical")
	}
}

// TestRestoreTornSectionLength: a section whose length prefix claims far
// more than the stream holds (a torn or hostile image) is an error, not
// an allocation of whatever the prefix says.
func TestRestoreTornSectionLength(t *testing.T) {
	st, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	insertRouted(t, st, "Hotels", snapshotDoc(t, "Axel Hotel", "Berlin"), 0.8, nil)
	for _, length := range []string{
		"\xff\xff\xff\xff\xff\xff\xff\xff", // > MaxInt64: makeslice panicked
		"\x00\x00\x7f\xff\xff\xff\xff\xff", // 140 TB: fits an int, not memory
	} {
		torn := snapshotMagic + " 1\n" + length
		if err := st.Restore(strings.NewReader(torn)); err == nil {
			t.Errorf("length %x: torn snapshot accepted", length)
		}
	}
	if st.Len("Hotels") != 1 {
		t.Errorf("refused restore touched the store: %d records", st.Len("Hotels"))
	}
}

// TestRestoreValidation: mismatched shard counts and corrupt sections are
// refused without touching the store.
func TestRestoreValidation(t *testing.T) {
	src, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	insertRouted(t, src, "Hotels", snapshotDoc(t, "Axel Hotel", "Berlin"), 0.8, nil)
	var img bytes.Buffer
	if err := src.Snapshot(&img); err != nil {
		t.Fatal(err)
	}

	dst, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(img.Bytes())); err == nil {
		t.Error("3-shard store accepted a 2-shard snapshot")
	}

	populated, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	insertRouted(t, populated, "Hotels", snapshotDoc(t, "Movenpick Hotel", "Berlin"), 0.9, nil)
	before := populated.Len("Hotels")
	// Truncate the stream mid-section: validation must fail and leave the
	// populated store exactly as it was.
	corrupt := img.Bytes()[:img.Len()-10]
	if err := populated.Restore(bytes.NewReader(corrupt)); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if populated.Len("Hotels") != before {
		t.Errorf("failed restore mutated the store: %d records, want %d", populated.Len("Hotels"), before)
	}

	if err := populated.Restore(strings.NewReader("not a snapshot\n")); err == nil {
		t.Error("garbage stream accepted")
	}

	// A well-framed image whose last section fails to decode is refused
	// before any shard is installed, so the shard ahead of it keeps its
	// contents too.
	var good bytes.Buffer
	if err := src.Shard(0).Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	fmt.Fprintf(&bad, "%s 2\n", snapshotMagic)
	for _, section := range [][]byte{good.Bytes(), []byte(`<xmldb><collection name=""></collection></xmldb>`)} {
		if err := WriteSection(&bad, section); err != nil {
			t.Fatal(err)
		}
	}
	for i, city := range []string{"Paris", "Nairobi", "Lagos", "Tokyo"} {
		insertRouted(t, populated, "Hotels", snapshotDoc(t, fmt.Sprintf("Hotel %d", i), city), 0.9, nil)
	}
	var beforeImg, afterImg bytes.Buffer
	if err := populated.Snapshot(&beforeImg); err != nil {
		t.Fatal(err)
	}
	if err := populated.Restore(bytes.NewReader(bad.Bytes())); err == nil {
		t.Error("image with a malformed section accepted")
	}
	if err := populated.Snapshot(&afterImg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(beforeImg.Bytes(), afterImg.Bytes()) {
		t.Error("refused restore changed a shard")
	}
}
