// Package benchkit holds experiment E7, the workload behind
// cmd/integbench. The command is a thin flag wrapper; the workload
// lives here, below the public facade, because it compares integration
// strategies the stable API deliberately does not expose. Throughput
// and latency are bench/'s business, not this package's.
package benchkit

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/pxml"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

// E7Config parameterises experiment E7: uncertainty-aware probabilistic
// integration versus naive last-write-wins, measured as fact accuracy
// over stream length on a contradiction-laden report stream.
type E7Config struct {
	// Hotels is the number of distinct entities with a ground-truth
	// attitude.
	Hotels int
	// Messages is the total number of reports in the stream.
	Messages int
	// Step is the measurement interval.
	Step int
	// LiarRate is the fraction of reports from unreliable sources.
	LiarRate float64
	// Seed makes the stream deterministic.
	Seed int64
}

// E7 runs the accuracy experiment, writing a TSV series (stream position,
// probabilistic accuracy, naive accuracy) to w — EXPERIMENTS.md §E7
// records a reference run.
//
// The workload models the paper's core integration challenge ("the
// contradictions between the extracted information and the information
// previously extracted and stored in the probabilistic database"): a
// fixed population of hotels each has a ground-truth user attitude;
// reliable sources report the truth, while a minority of systematically
// unreliable sources report its opposite. The probabilistic DI service
// pools attitude distributions weighted by learned source trust; the
// naive service simply overwrites with each arriving report.
func E7(cfg E7Config, w io.Writer) error {
	names := hotelNames(cfg.Hotels)
	truth := make([]string, cfg.Hotels)
	for i := range truth {
		if i%2 == 0 {
			truth[i] = "Positive"
		} else {
			truth[i] = "Negative"
		}
	}

	probDB, naiveDB := xmldb.New(), xmldb.New()
	prob, err := integrate.NewService(kb.New(), core.NewTrustModel(), probDB)
	if err != nil {
		return fmt.Errorf("probabilistic DI: %w", err)
	}
	naive, err := integrate.NewService(kb.New(), core.NewTrustModel(), naiveDB)
	if err != nil {
		return fmt.Errorf("naive DI: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	now := time.Unix(1_300_000_000, 0)

	fmt.Fprintln(w, "stream_len\tprobabilistic_acc\tnaive_acc")
	for sent := 1; sent <= cfg.Messages; sent++ {
		h := rng.Intn(cfg.Hotels)
		liar := rng.Float64() < cfg.LiarRate
		reported := truth[h]
		source := fmt.Sprintf("citizen%d", rng.Intn(12))
		if liar {
			reported = opposite(truth[h])
			source = fmt.Sprintf("troll%d", rng.Intn(3))
		}
		tpl := reportTemplate(names[h], reported, source, now.Add(time.Duration(sent)*time.Minute))
		if _, err := prob.Integrate(tpl); err != nil {
			return fmt.Errorf("integrate: %w", err)
		}
		if _, err := naive.IntegrateNaive(tpl); err != nil {
			return fmt.Errorf("integrate naive: %w", err)
		}
		if sent%cfg.Step == 0 {
			fmt.Fprintf(w, "%d\t%.3f\t%.3f\n",
				sent, accuracy(probDB, names, truth), accuracy(naiveDB, names, truth))
		}
	}
	return nil
}

func opposite(att string) string {
	if att == "Positive" {
		return "Negative"
	}
	return "Positive"
}

// reportTemplate builds the extraction template one report would produce:
// the reported attitude carried as a distribution leaning 0.9/0.1 toward
// the reported value, as the sentiment scorer does for a clear opinion.
func reportTemplate(hotel, attitude, source string, at time.Time) extract.Template {
	d := uncertain.NewDist()
	_ = d.Add(attitude, 0.9)
	_ = d.Add(opposite(attitude), 0.1)
	return extract.Template{
		Domain:    "tourism",
		RecordTag: "Hotel",
		Fields: map[string]extract.FieldValue{
			"Hotel_Name":    {Kind: kb.FieldText, Text: hotel, CF: 0.9},
			"City":          {Kind: kb.FieldText, Text: "Berlin", CF: 0.8},
			"User_Attitude": {Kind: kb.FieldAttitude, Dist: d, CF: 0.8},
		},
		Certainty: 0.5,
		Source:    source,
		Extracted: at,
	}
}

// accuracy is the fraction of ground-truth entities whose stored attitude
// distribution ranks the true value first. Entities not yet reported count
// as wrong, so early accuracy climbs as coverage grows.
func accuracy(db *xmldb.DB, names, truth []string) float64 {
	correct := 0
	for i, want := range truth {
		if storedTop(db, names[i]) == want {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}

// hotelNames builds n mutually dissimilar entity names, so duplicate
// detection (name similarity >= 0.75) keeps them apart — the experiment
// measures conflict resolution, not entity resolution.
func hotelNames(n int) []string {
	first := []string{"Azure", "Bravado", "Crimson", "Dunmore", "Elysian", "Falcon",
		"Gilded", "Harbour", "Ivory", "Juniper", "Kestrel", "Lakeside",
		"Meridian", "Northgate", "Opal", "Paragon"}
	second := []string{"Palace", "Lodge", "Retreat", "Towers", "Courtyard", "Manor",
		"Pavilion", "Terrace", "Springs", "Villa", "Quarters", "Haven"}
	names := make([]string, 0, n)
	for i := 0; len(names) < n; i++ {
		names = append(names, first[i%len(first)]+" "+second[(i/len(first)+i)%len(second)])
	}
	return names
}

func storedTop(db *xmldb.DB, hotel string) string {
	var top string
	db.Each("Hotels", func(r *xmldb.Record) bool {
		for _, m := range pxml.FindAll(r.Doc, "/Hotel/Hotel_Name") {
			if m.Node.TextContent() != hotel {
				continue
			}
			for _, f := range pxml.FindAll(r.Doc, "/Hotel/User_Attitude") {
				if alt, ok := extract.MuxToDist(f.Node).Top(); ok {
					top = alt.Name
				}
			}
			return false
		}
		return true
	})
	return top
}
