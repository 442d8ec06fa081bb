package kb

import "testing"

func TestDefaultDomains(t *testing.T) {
	k := New()
	ds := k.Domains()
	if len(ds) != 3 {
		t.Fatalf("domains = %d", len(ds))
	}
	names := []string{ds[0].Name, ds[1].Name, ds[2].Name}
	want := []string{"farming", "tourism", "traffic"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("domain order = %v", names)
			break
		}
	}
	tour, ok := k.Domain("tourism")
	if !ok {
		t.Fatal("tourism missing")
	}
	if tour.Collection != "Hotels" || tour.RecordTag != "Hotel" || tour.KeyField != "Hotel_Name" {
		t.Errorf("tourism = %+v", tour)
	}
	// Every domain's key field exists among its fields.
	for _, d := range ds {
		found := false
		for _, f := range d.Fields {
			if f.Name == d.KeyField {
				found = true
			}
		}
		if !found {
			t.Errorf("domain %s key field %q missing", d.Name, d.KeyField)
		}
	}
	if _, ok := k.Domain("astronomy"); ok {
		t.Error("unknown domain found")
	}
}

func TestRuleCF(t *testing.T) {
	k := New()
	if cf := k.RuleCF("gazetteer-exact"); cf != 0.8 {
		t.Errorf("gazetteer-exact = %v", cf)
	}
	if cf := k.RuleCF("unknown-rule"); cf != 0 {
		t.Errorf("unknown rule = %v", cf)
	}
}

func TestSeedsAndClassifier(t *testing.T) {
	k := New()
	if len(k.Seeds()) < 30 {
		t.Fatalf("only %d seeds", len(k.Seeds()))
	}
	nb, err := k.TrainTypeClassifier()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's two scenario messages classify correctly.
	cases := []struct {
		msg, want string
	}{
		{"Good morning Berlin. Very impressed by the customer service at #movenpick hotel in berlin.", LabelInformative},
		{"Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?", LabelRequest},
		{"huge jam on the ring road avoid it", LabelInformative},
		{"is the bridge open this morning?", LabelRequest},
	}
	for _, c := range cases {
		got, p := nb.PredictLabel(TypeFeatures(c.msg))
		if got != c.want {
			t.Errorf("classify(%q) = %s (p=%.2f), want %s", c.msg, got, p, c.want)
		}
	}
}

func TestTypeFeatures(t *testing.T) {
	feats := TypeFeatures("Can anyone recommend a hotel?")
	hasQ, hasStart := false, false
	for _, f := range feats {
		if f == "__question_mark__" {
			hasQ = true
		}
		if f == "__interrogative_start__" {
			hasStart = true
		}
	}
	if !hasQ || !hasStart {
		t.Errorf("features = %v", feats)
	}
}

// TestTrustAndDecay checks the KB's fixed decay factor. Source trust is
// learned state and left the KB; core owns it (core.TestTrustModelPrior).
func TestTrustAndDecay(t *testing.T) {
	d := New().DecayPerDay()
	if d <= 0.9 || d > 1 {
		t.Errorf("decay = %v", d)
	}
}
