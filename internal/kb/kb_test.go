package kb

import (
	"testing"
)

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

func TestRegisterDomain(t *testing.T) {
	k := New()
	err := k.RegisterDomain(Domain{
		Name: "health", Collection: "Clinics", RecordTag: "Clinic",
		KeyField: "Clinic_Name",
		Fields: []FieldSpec{
			{Name: "Clinic_Name", Kind: FieldText, Required: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Domain("health"); !ok {
		t.Error("registered domain missing")
	}
	// Validation failures.
	bad := []Domain{
		{},
		{Name: "x", Collection: "C", RecordTag: "R"},
		{Name: "x", Collection: "C", RecordTag: "R", KeyField: "nope",
			Fields: []FieldSpec{{Name: "A"}}},
	}
	for i, d := range bad {
		if err := k.RegisterDomain(d); err == nil {
			t.Errorf("bad domain %d accepted", i)
		}
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

func TestTrustAndDecay(t *testing.T) {
	k := New()
	if k.Trust() == nil {
		t.Fatal("nil trust model")
	}
	r := k.Trust().Reliability("anyone")
	if r <= 0 || r >= 1 {
		t.Errorf("prior reliability = %v", r)
	}
	d := k.DecayPerDay()
	if d <= 0.9 || d > 1 {
		t.Errorf("decay = %v", d)
	}
}
