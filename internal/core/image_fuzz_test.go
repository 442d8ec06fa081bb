package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/disambig"
	"repro/internal/shard"
)

// FuzzImageRestore: the composite image is the boot format every
// checkpoint restores from. Whatever the bytes, Restore must not panic,
// and it either succeeds or fails leaving the system exactly as it was:
// its Snapshot byte-identical to the one taken before. Seeded with a
// real two-shard image (records, learned trust and priors) and its
// truncations at each section boundary.
func FuzzImageRestore(f *testing.F) {
	donor, err := New(Config{GazetteerNames: 300, GazetteerSeed: 2011, Shards: 2, Clock: func() time.Time { return t0 }})
	if err != nil {
		f.Fatal(err)
	}
	defer donor.Close()
	for _, m := range []string{
		"wonderful stay at the Axel Hotel in Berlin, lovely place",
		"terrible night at the Movenpick Hotel in Paris, rude staff",
		"wonderful stay at the Axel Hotel in Berlin, great breakfast",
	} {
		if _, err := donor.Ingest(context.Background(), m, "alice"); err != nil {
			f.Fatal(err)
		}
	}
	donor.Priors.Reinforce("Berlin", 1, 1)
	var img bytes.Buffer
	if err := donor.Snapshot(&img); err != nil {
		f.Fatal(err)
	}
	seed := img.Bytes()
	f.Add(seed)
	for _, n := range []int{0, len(imageMagic), len(imageMagic) + 1, len(imageMagic) + 9, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := shard.New(2)
		if err != nil {
			t.Fatal(err)
		}
		im := image{store: store, trust: NewTrustModel(), priors: disambig.NewPriors()}
		if err := im.Restore(bytes.NewReader(seed)); err != nil {
			t.Fatalf("seed image: %v", err)
		}
		var before bytes.Buffer
		if err := im.Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		if err := im.Restore(bytes.NewReader(data)); err == nil {
			return
		}
		var after bytes.Buffer
		if err := im.Snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("failed restore changed the system:\nbefore %q\nafter  %q", before.Bytes(), after.Bytes())
		}
	})
}
