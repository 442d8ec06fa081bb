package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/tweetgen"
)

// preloadSeed generates the golden store's reports. It is a constant of
// the benchmark, not of the run: every seed measures against the same
// accumulated knowledge, and only the measured traffic varies with -seed.
const preloadSeed = 2011

// msg is one generated message.
type msg struct{ Text, Source string }

func (m msg) reportBody() []byte {
	b, _ := json.Marshal(map[string]string{"text": m.Text, "source": m.Source}) // string maps cannot fail to marshal
	return b
}

func (m msg) askBody() []byte {
	b, _ := json.Marshal(map[string]string{"question": m.Text, "source": m.Source})
	return b
}

// opKind is one request type of the serve_mix traffic.
type opKind uint8

const (
	opAsk opKind = iota
	opReport
	opFeedback
)

// mixOp is one scheduled serve_mix operation. Idx points into Pool (asks)
// or MixReports; a feedback op's Idx picks a record id, at run time, from
// the ids earlier answers exposed, and Confirm its verdict.
type mixOp struct {
	Kind    opKind
	Idx     int
	Confirm bool
}

// inputs is everything one run sends, derived from the seed alone.
type inputs struct {
	Preload   []msg   // golden store contents (preloadSeed)
	Warm      []msg   // untimed warm-up reports
	Reports   []msg   // measured reports: mixed domains, noise 0.4
	Questions []msg   // ask_cold's questions, noise 0.4: asked once to warm up, then round and round
	Pool      []msg   // 500 noise-free questions serve_mix draws Zipf-wise
	Check     []msg   // noise-free questions behind the answer digest
	Mix       []mixOp // serve_mix schedule: 90% asks, 8% reports, 2% feedback
}

// ofType draws n messages of one ground-truth type. tweetgen treats
// RequestRatio 0 as 0.2, so the type is selected by Truth.Type and the
// ratio only keeps the rejection rate low.
func ofType(seed int64, noise float64, typ string, n int) []msg {
	ratio := 0.02
	if typ == "request" {
		ratio = 0.98
	}
	g, err := tweetgen.New(tweetgen.Config{Seed: seed, Noise: noise, Domain: tweetgen.DomainMixed, RequestRatio: ratio})
	if err != nil {
		panic(err) // constant, valid configuration
	}
	out := make([]msg, 0, n)
	for len(out) < n {
		for _, m := range g.Generate(n - len(out) + 16) {
			if m.Truth.Type == typ && len(out) < n {
				out = append(out, msg{m.Text, m.Source})
			}
		}
	}
	return out
}

// sizes are the op counts of one run. The fixed ones (preload, warm-up,
// crash window) scale with -scale; ingest_stream's reports are sized for
// the fastest plausible daemon over -seconds, and wrap around if they
// still run out (a repeated report merges). ask_cold asks its warm-up
// questions again and again: with the answer cache off each is answered
// from scratch every time, but none pays a first fuzzy gazetteer lookup
// (a scan of 20 000 names) inside the measured phase. A workload
// generates only the streams it sends.
type sizes struct {
	preload, warm, reports, questions, pool, mix int
	// covered is how many of crash_recover's reports the checkpoints
	// cover; the rest are in the WAL only and are replayed.
	covered int
}

// checkQuestions is the size of the answer digest.
const checkQuestions = 50

func sizesFor(workload string, seconds, scale float64) sizes {
	n := func(x float64) int { return max(int(x*scale), 8) }
	sz := sizes{preload: n(6000), warm: n(2000), reports: 8, questions: 8, pool: 8, mix: 8}
	switch workload {
	case "ingest_stream":
		sz.reports = n(5000 * seconds / scale)
	case "ask_cold":
		sz.questions = sz.warm
	case "serve_mix":
		sz.pool = 500
		sz.mix = max(int(serveRate*seconds), 8)
		sz.reports = sz.mix/10 + 8
	case "crash_recover":
		sz.covered = n(1000)
		sz.reports = sz.covered + n(4000)
	}
	return sz
}

func generate(seed int64, sz sizes) *inputs {
	sub := func(k int64) int64 { return seed*1000003 + k }
	const noise = 0.4
	in := &inputs{
		Preload:   ofType(preloadSeed, 0.4, "informative", sz.preload),
		Warm:      ofType(sub(1), noise, "informative", sz.warm),
		Reports:   ofType(sub(3), noise, "informative", sz.reports),
		Questions: ofType(sub(4), 0.4, "request", sz.questions),
		Pool:      ofType(sub(5), 0, "request", sz.pool),
		Check:     ofType(preloadSeed+1, 0, "request", checkQuestions),
	}
	rng := rand.New(rand.NewSource(sub(6)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(in.Pool)-1))
	in.Mix = make([]mixOp, sz.mix)
	reports := 0
	for i := range in.Mix {
		switch r := rng.Float64(); {
		case r < 0.90:
			in.Mix[i] = mixOp{Kind: opAsk, Idx: int(zipf.Uint64())}
		case r < 0.98:
			in.Mix[i] = mixOp{Kind: opReport, Idx: reports % len(in.Reports)}
			reports++
		default:
			in.Mix[i] = mixOp{Kind: opFeedback, Idx: rng.Intn(1 << 30), Confirm: rng.Intn(4) != 0}
		}
	}
	return in
}

// digest fingerprints every generated input, so two runs with one seed
// can be shown to have sent the same bytes.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, ms := range [][]msg{in.Preload, in.Warm, in.Reports, in.Questions, in.Pool, in.Check} {
		for _, m := range ms {
			fmt.Fprintf(h, "%s\x00%s\x00", m.Text, m.Source)
		}
		fmt.Fprint(h, "\x01")
	}
	for _, op := range in.Mix {
		fmt.Fprintf(h, "%d,%d,%t;", op.Kind, op.Idx, op.Confirm)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
