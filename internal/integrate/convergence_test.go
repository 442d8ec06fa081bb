package integrate

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/pxml"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

// TestIntegrationConvergence is experiment E7 in miniature: on a stream
// where 30% of reports come from systematically unreliable sources,
// uncertainty-aware integration must converge to the ground truth while
// naive last-write-wins stays pinned near the contradiction rate.
func TestIntegrationConvergence(t *testing.T) {
	names := []string{"Azure Palace", "Crimson Lodge", "Elysian Retreat",
		"Falcon Towers", "Gilded Courtyard", "Harbour Manor",
		"Ivory Pavilion", "Juniper Terrace", "Kestrel Springs", "Lakeside Villa"}
	truth := make([]string, len(names))
	for i := range truth {
		if i%2 == 0 {
			truth[i] = "Positive"
		} else {
			truth[i] = "Negative"
		}
	}

	probDB, naiveDB := xmldb.New(), xmldb.New()
	prob, err := NewService(kb.New(), newTrust(t), probDB)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewService(kb.New(), newTrust(t), naiveDB)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2011))
	base := time.Unix(1_300_000_000, 0)
	const stream = 600
	for sent := 1; sent <= stream; sent++ {
		h := rng.Intn(len(names))
		reported, source := truth[h], fmt.Sprintf("citizen%d", rng.Intn(8))
		if rng.Float64() < 0.3 {
			reported, source = oppositeAttitude(truth[h]), fmt.Sprintf("troll%d", rng.Intn(3))
		}
		tpl := attitudeTemplate(names[h], reported, source, base.Add(time.Duration(sent)*time.Minute))
		if _, err := prob.Integrate(tpl); err != nil {
			t.Fatalf("integrate #%d: %v", sent, err)
		}
		if _, err := naive.IntegrateNaive(tpl); err != nil {
			t.Fatalf("integrate naive #%d: %v", sent, err)
		}
	}

	probAcc := attitudeAccuracy(t, probDB, names, truth)
	naiveAcc := attitudeAccuracy(t, naiveDB, names, truth)
	if probAcc < 0.9 {
		t.Errorf("probabilistic integration accuracy = %.2f, want >= 0.9", probAcc)
	}
	// Naive overwrite tracks the last report per entity; with a 30%
	// contradiction rate it cannot be reliably correct. Guard the gap,
	// not an exact value, to keep the test robust to stream reshuffles.
	if naiveAcc >= probAcc {
		t.Errorf("naive accuracy %.2f >= probabilistic %.2f; expected a gap", naiveAcc, probAcc)
	}
}

func oppositeAttitude(att string) string {
	if att == "Positive" {
		return "Negative"
	}
	return "Positive"
}

func attitudeTemplate(hotel, attitude, source string, at time.Time) extract.Template {
	d := uncertain.NewDist()
	if err := d.Add(attitude, 0.9); err != nil {
		panic(err)
	}
	if err := d.Add(oppositeAttitude(attitude), 0.1); err != nil {
		panic(err)
	}
	return extract.Template{
		Domain:    "tourism",
		RecordTag: "Hotel",
		Fields: map[string]extract.FieldValue{
			"Hotel_Name":    {Kind: kb.FieldText, Text: hotel, CF: 0.9},
			"User_Attitude": {Kind: kb.FieldAttitude, Dist: d, CF: 0.8},
		},
		Certainty: 0.5,
		Source:    source,
		Extracted: at,
	}
}

func attitudeAccuracy(t *testing.T, db *xmldb.DB, names, truth []string) float64 {
	t.Helper()
	correct := 0
	for i := range names {
		var top string
		db.Each("Hotels", func(r *xmldb.Record) bool {
			for _, m := range pxml.FindAll(r.Doc, "/Hotel/Hotel_Name") {
				if m.Node.TextContent() != names[i] {
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
		if top == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(names))
}

// conditionTemplate builds a traffic report with an explicit Condition
// distribution and observation time — the shape fillEvent produces when a
// message carries a temporal expression ("flooded this morning").
func conditionTemplate(place, condition, source string, observed time.Time) extract.Template {
	d := uncertain.NewDist()
	if err := d.Add(condition, 0.9); err != nil {
		panic(err)
	}
	return extract.Template{
		Domain:    "traffic",
		RecordTag: "RoadReport",
		Fields: map[string]extract.FieldValue{
			"Place":     {Kind: kb.FieldText, Text: place, CF: 0.9},
			"Condition": {Kind: kb.FieldDist, Dist: d, CF: 0.8},
		},
		Certainty: 0.6,
		Source:    source,
		Extracted: observed,
	}
}

func topCondition(t *testing.T, db *xmldb.DB, id int64) string {
	t.Helper()
	rec, ok := db.Get("RoadReports", id)
	if !ok {
		t.Fatalf("record %d missing", id)
	}
	n, _ := rec.Doc.FirstChild("Condition")
	if n == nil {
		t.Fatal("no Condition field")
	}
	top, ok := extract.MuxToDist(n).Top()
	if !ok {
		t.Fatal("empty Condition distribution")
	}
	return top.Name
}

// TestNewestWinsByObservationTime: under the newest-wins policy the report
// with the LATER observation time wins, independent of arrival order —
// "the validation of the information over time" (paper §uncertainty).
func TestNewestWinsByObservationTime(t *testing.T) {
	base := time.Date(2011, 4, 1, 8, 0, 0, 0, time.UTC)

	t.Run("fresh report supersedes", func(t *testing.T) {
		db := xmldb.New()
		s, err := NewService(kb.New(), newTrust(t), db)
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.Integrate(conditionTemplate("Nairobi station", "jam", "a", base))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Integrate(conditionTemplate("Nairobi station", "clear", "b", base.Add(4*time.Hour)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Action != ActionMerged || res.RecordID != first.RecordID {
			t.Fatalf("second report: %+v, want merge into %d", res, first.RecordID)
		}
		if got := topCondition(t, db, first.RecordID); got != "clear" {
			t.Errorf("condition = %q, want the fresher \"clear\"", got)
		}
	})

	t.Run("stale report is ignored", func(t *testing.T) {
		db := xmldb.New()
		s, err := NewService(kb.New(), newTrust(t), db)
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.Integrate(conditionTemplate("Nairobi station", "clear", "a", base.Add(4*time.Hour)))
		if err != nil {
			t.Fatal(err)
		}
		// This morning's jam arrives late; the road is clear now.
		if _, err := s.Integrate(conditionTemplate("Nairobi station", "jam", "b", base)); err != nil {
			t.Fatal(err)
		}
		if got := topCondition(t, db, first.RecordID); got != "clear" {
			t.Errorf("condition = %q, stale report clobbered fresh state", got)
		}
	})
}

// TestObservedAtStamping: records carry the latest observation time.
func TestObservedAtStamping(t *testing.T) {
	base := time.Date(2011, 4, 1, 8, 0, 0, 0, time.UTC)
	db := xmldb.New()
	s, err := NewService(kb.New(), newTrust(t), db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Integrate(conditionTemplate("Mombasa road", "jam", "a", base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Integrate(conditionTemplate("Mombasa road", "clear", "b", base.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	rec, _ := db.Get("RoadReports", res.RecordID)
	if got := observedAt(rec.Doc); !got.Equal(base.Add(time.Hour)) {
		t.Errorf("Observed_At = %v, want %v", got, base.Add(time.Hour))
	}
}
