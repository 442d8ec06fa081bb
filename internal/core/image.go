package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/disambig"
	"repro/internal/feedback"
	"repro/internal/shard"
	"repro/internal/uncertain"
)

// imageMagic heads the composite durable image: the store snapshot plus
// the learned auxiliary state (source trust, disambiguation priors, and
// the feedback engine's applied watermark). Before this format, learned
// source reliability silently reset to its prior on every restart — the
// paper's trust model only matters if it survives the process.
const imageMagic = "neogeo-image v2"

// auxState is the serialized learned state riding alongside the store.
type auxState struct {
	// Trust is the source-trust model's counts.
	Trust uncertain.TrustState `json:"trust"`
	// Priors is the disambiguation reinforcement memory.
	Priors disambig.PriorsState `json:"priors,omitempty"`
	// FeedbackSeq is the feedback engine's applied watermark at snapshot
	// time: ledger entries at or below it are inside the store image,
	// entries above it replay at recovery.
	FeedbackSeq int64 `json:"feedback_seq"`
	// FeedbackDone lists applied sequence numbers above the watermark —
	// entries resolved while an older replay entry was still deferring.
	// Recovery skips them too, keeping replay exactly-once even across a
	// checkpoint taken mid-recovery.
	FeedbackDone []int64 `json:"feedback_done,omitempty"`
}

// image is the composite Snapshotter the durability subsystem
// checkpoints and the facade's Snapshot/Restore serialize: a header
// line, then a length-prefixed store snapshot, then a length-prefixed
// aux JSON section.
type image struct {
	store  *shard.Store
	trust  *uncertain.TrustModel
	priors *disambig.Priors
	// eng freezes applies during Snapshot so the recorded watermark and
	// the store bytes agree; nil during boot recovery (the engine is
	// built after the image restores).
	eng *feedback.Engine
	// recovered, when non-nil, receives the restored watermark and
	// resolved set — boot recovery reads them to know which ledger
	// entries to replay.
	recovered *recoveredFeedback
}

// recoveredFeedback is what boot recovery learns about the feedback
// engine's progress from a restored image.
type recoveredFeedback struct {
	seq  int64
	done []int64
}

// Snapshot writes the composite image. With an engine attached, applies
// are excluded for the duration, so every verdict is either fully
// inside the store bytes and covered by the watermark (or the resolved
// set), or neither.
func (im image) Snapshot(w io.Writer) error {
	if im.eng != nil {
		return im.eng.WithFrozen(func(seq int64, done []int64) error { return im.write(w, seq, done) })
	}
	return im.write(w, 0, nil)
}

func (im image) write(w io.Writer, appliedSeq int64, done []int64) error {
	if _, err := fmt.Fprintf(w, "%s\n", imageMagic); err != nil {
		return fmt.Errorf("core: image header: %w", err)
	}
	var buf bytes.Buffer
	if err := im.store.Snapshot(&buf); err != nil {
		return err
	}
	if err := shard.WriteSection(w, buf.Bytes()); err != nil {
		return fmt.Errorf("core: image store section: %w", err)
	}
	aux := auxState{
		Trust:        im.trust.ExportState(),
		Priors:       im.priors.ExportState(),
		FeedbackSeq:  appliedSeq,
		FeedbackDone: done,
	}
	data, err := json.Marshal(aux)
	if err != nil {
		return fmt.Errorf("core: image aux section: %w", err)
	}
	if err := shard.WriteSection(w, data); err != nil {
		return fmt.Errorf("core: image aux section: %w", err)
	}
	return nil
}

// Restore replaces the store and the learned state from an image. Both
// sections are fully validated before any live state is touched.
func (im image) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil && (header == "" || err != io.EOF) {
		return fmt.Errorf("core: image header: %w", err)
	}
	if strings.TrimSuffix(header, "\n") != imageMagic {
		return fmt.Errorf("core: not a system image (header %q)", strings.TrimSpace(header))
	}
	storeSec, err := shard.ReadSection(br)
	if err != nil {
		return fmt.Errorf("core: image store section: %w", err)
	}
	auxSec, err := shard.ReadSection(br)
	if err != nil {
		return fmt.Errorf("core: image aux section: %w", err)
	}
	var aux auxState
	if err := json.Unmarshal(auxSec, &aux); err != nil {
		return fmt.Errorf("core: image aux section: %w", err)
	}
	// Dry-run the aux state against scratch instances before any live
	// state is touched: a malformed aux section must leave the system
	// unchanged, matching the store's own all-or-nothing restore.
	scratchTrust, err := uncertain.NewTrustModel(0.5, 1)
	if err != nil {
		return err
	}
	if err := scratchTrust.ImportState(aux.Trust); err != nil {
		return fmt.Errorf("core: image aux section: %w", err)
	}
	if err := disambig.NewPriors().ImportState(aux.Priors); err != nil {
		return fmt.Errorf("core: image aux section: %w", err)
	}
	if err := im.store.Restore(bytes.NewReader(storeSec)); err != nil {
		return err
	}
	if err := im.trust.ImportState(aux.Trust); err != nil {
		return err
	}
	if err := im.priors.ImportState(aux.Priors); err != nil {
		return err
	}
	im.adoptSeq(aux.FeedbackSeq, aux.FeedbackDone)
	return nil
}

func (im image) adoptSeq(seq int64, done []int64) {
	if im.recovered != nil {
		im.recovered.seq = seq
		im.recovered.done = done
	}
	if im.eng != nil {
		im.eng.AdoptApplied(seq, done)
	}
}
