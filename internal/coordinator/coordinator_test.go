package coordinator

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/mq"
	"repro/internal/ontology"
	"repro/internal/qa"
	"repro/internal/shard"
	"repro/internal/xmldb"
)

func newCoordinator(t *testing.T) (*Coordinator, *xmldb.DB) {
	t.Helper()
	c, db := newCoordinatorServices(t, mq.New())
	return c, db
}

// newCoordinatorWithQueue wires the standard test services around a
// caller-supplied queue (e.g. WAL-backed).
func newCoordinatorWithQueue(t *testing.T, q *mq.Queue) *Coordinator {
	t.Helper()
	c, _ := newCoordinatorServices(t, q)
	return c
}

func newCoordinatorServices(t *testing.T, q *mq.Queue) (*Coordinator, *xmldb.DB) {
	t.Helper()
	g := gazetteer.New()
	add := func(name string, lat, lon float64, country string, pop int64) {
		t.Helper()
		if _, err := g.Add(gazetteer.Entry{
			Name: name, Location: geo.Point{Lat: lat, Lon: lon},
			Feature: gazetteer.FeatureCity, Country: country, Population: pop,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("Berlin", 52.52, 13.405, "DE", 3_700_000)
	add("Nairobi", -1.29, 36.82, "KE", 4_400_000)
	o := ontology.New()
	o.LoadContainment(g)
	k := kb.New()
	store, err := shard.New(1)
	if err != nil {
		t.Fatal(err)
	}
	db := store.Shard(0)
	ie, err := extract.NewService(k, g, o)
	if err != nil {
		t.Fatal(err)
	}
	di, err := integrate.NewService(k, db)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := qa.NewService(store, k, g, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(q, ie, SingleLane(di), ans, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetClock(func() time.Time { return time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC) })
	return c, db
}

// drainEach collects one DrainEach stream, in completion order.
func drainEach(ctx context.Context, c *Coordinator, limit int) (outs []*Outcome, errs []error) {
	c.DrainEach(ctx, limit, func(out *Outcome, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		outs = append(outs, out)
	})
	return outs, errs
}

func TestWorkflowInformative(t *testing.T) {
	c, db := newCoordinator(t)
	id, err := c.Submit(context.Background(), "loved the Axel Hotel in Berlin, great stay", "alice")
	if err != nil {
		t.Fatal(err)
	}
	out, ok, err := c.ProcessOne(context.Background())
	if err != nil || !ok {
		t.Fatalf("ProcessOne = %v, %v", ok, err)
	}
	if out.MessageID != id {
		t.Errorf("message id = %d", out.MessageID)
	}
	if out.Type != extract.TypeInformative {
		t.Errorf("type = %s", out.Type)
	}
	if out.Inserted != 1 {
		t.Errorf("inserted = %d", out.Inserted)
	}
	if db.Len("Hotels") != 1 {
		t.Errorf("db records = %d", db.Len("Hotels"))
	}
	// Signal trail includes MC→IE and MC→DI activations.
	var sawIE, sawDI bool
	for _, s := range c.Signals() {
		if s.To == "IE" {
			sawIE = true
		}
		if s.To == "DI" {
			sawDI = true
		}
	}
	if !sawIE || !sawDI {
		t.Errorf("signal trail incomplete: %+v", c.Signals())
	}
}

func TestWorkflowRequest(t *testing.T) {
	c, _ := newCoordinator(t)
	if _, err := c.Submit(context.Background(), "loved the Axel Hotel in Berlin, great stay", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), "can anyone recommend a good hotel in Berlin?", "bob"); err != nil {
		t.Fatal(err)
	}
	// In queue order through the reference engine: the request must see
	// the report integrated.
	var outs []*Outcome
	for {
		out, ok, err := c.ProcessOne(context.Background())
		if !ok {
			break
		}
		if err != nil {
			t.Fatalf("ProcessOne: %v", err)
		}
		outs = append(outs, out)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	req := outs[1]
	if req.Type != extract.TypeRequest {
		t.Fatalf("second message type = %s", req.Type)
	}
	if !strings.Contains(strings.ToLower(req.Answer), "axel hotel") {
		t.Errorf("answer = %q", req.Answer)
	}
	if !strings.Contains(req.Query, "topk(") {
		t.Errorf("query = %q", req.Query)
	}
	// Queue fully drained and acknowledged.
	if c.queue.Len() != 0 || c.queue.InFlight() != 0 {
		t.Errorf("queue not drained: len=%d inflight=%d", c.queue.Len(), c.queue.InFlight())
	}
}

func TestProcessOneEmptyQueue(t *testing.T) {
	c, _ := newCoordinator(t)
	if _, ok, err := c.ProcessOne(context.Background()); ok || err != nil {
		t.Errorf("empty queue: ok=%v err=%v", ok, err)
	}
}

func TestDrainLimit(t *testing.T) {
	c, _ := newCoordinator(t)
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(context.Background(), "nice stay at the Axel Hotel in Berlin", "u"); err != nil {
			t.Fatal(err)
		}
	}
	outs, errs := drainEach(context.Background(), c, 2)
	if len(outs) != 2 || len(errs) != 0 {
		t.Fatalf("drain(2) = %d outs, %d errs", len(outs), len(errs))
	}
	if c.queue.Len() != 3 {
		t.Errorf("remaining = %d", c.queue.Len())
	}
}

func TestMessageTagging(t *testing.T) {
	c, _ := newCoordinator(t)
	if _, err := c.Submit(context.Background(), "is the road to Nairobi open?", "driver"); err != nil {
		t.Fatal(err)
	}
	out, ok, err := c.ProcessOne(context.Background())
	if err != nil || !ok {
		t.Fatalf("ProcessOne: %v %v", ok, err)
	}
	if out.Type != extract.TypeRequest {
		t.Errorf("type = %s", out.Type)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestCustomRulesUnknownStep(t *testing.T) {
	c, _ := newCoordinator(t)
	c.rules = Rules{
		extract.TypeInformative: {Step("bogus")},
		extract.TypeRequest:     {Step("bogus")},
	}
	if _, err := c.Submit(context.Background(), "lovely Axel Hotel in Berlin", "x"); err != nil {
		t.Fatal(err)
	}
	_, ok, err := c.ProcessOne(context.Background())
	if !ok {
		t.Fatal("message not processed")
	}
	if err == nil {
		t.Error("unknown step succeeded")
	}
}
