package coordinator

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/mq"
	"repro/internal/ontology"
	"repro/internal/qa"
	"repro/internal/shard"
	"repro/internal/uncertain"
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
	var entries []gazetteer.Entry
	add := func(name string, lat, lon float64, country string, pop int64) {
		entries = append(entries, gazetteer.Entry{
			Name: name, Location: geo.Point{Lat: lat, Lon: lon},
			Feature: gazetteer.FeatureCity, Country: country, Population: pop,
		})
	}
	add("Berlin", 52.52, 13.405, "DE", 3_700_000)
	add("Nairobi", -1.29, 36.82, "KE", 4_400_000)
	g, err := gazetteer.New(entries)
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	o.LoadContainment(g)
	k := kb.New()
	store, err := shard.New(1)
	if err != nil {
		t.Fatal(err)
	}
	trust := newTrust(t)
	ie, err := extract.NewService(k, g, o, trust.Reliability, nil)
	if err != nil {
		t.Fatal(err)
	}
	di, err := shard.NewIntegrator(k, trust, store)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := qa.NewService(store, k, g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(q, ie, di, ans)
	if err != nil {
		t.Fatal(err)
	}
	c.SetClock(func() time.Time { return time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC) })
	return c, store.Shard(0)
}

// processAll loops ProcessOne until the queue is empty, collecting the
// outcomes in queue order.
func processAll(t *testing.T, c *Coordinator) (outs []*Outcome) {
	t.Helper()
	for {
		out, ok, err := c.ProcessOne(context.Background())
		if !ok {
			return outs
		}
		if err != nil {
			t.Fatalf("ProcessOne: %v", err)
		}
		outs = append(outs, out)
	}
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
	outs := processAll(t, c)
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	req := outs[1]
	if req.Type != extract.TypeRequest {
		t.Fatalf("second message type = %s", req.Type)
	}
	if req.Response == nil {
		t.Fatal("request outcome carries no response")
	}
	if !strings.Contains(strings.ToLower(req.Response.Text), "axel hotel") {
		t.Errorf("answer = %q", req.Response.Text)
	}
	if !strings.Contains(req.Response.Query, "topk(") {
		t.Errorf("query = %q", req.Response.Query)
	}
	// Queue fully drained and acknowledged.
	if c.queue.Len() != 0 || c.queue.InFlight() != 0 {
		t.Errorf("queue not drained: len=%d inflight=%d", c.queue.Len(), c.queue.InFlight())
	}
}

// ProcessOne and DrainEach run one front half, so on the same messages
// they agree on every outcome field completion order cannot move.
func TestEnginesShareFrontHalf(t *testing.T) {
	ctx := context.Background()
	run := func(drain func(*Coordinator) []*Outcome) map[int64]*Outcome {
		t.Helper()
		c, _ := newCoordinator(t)
		for _, m := range [][2]string{
			{"loved the Axel Hotel in Berlin, great stay", "alice"},
			{"can anyone recommend a good hotel in Berlin?", "bob"},
		} {
			if _, err := c.Submit(ctx, m[0], m[1]); err != nil {
				t.Fatal(err)
			}
		}
		byID := make(map[int64]*Outcome)
		for _, out := range drain(c) {
			byID[out.MessageID] = out
		}
		if len(byID) != 2 {
			t.Fatalf("outcomes = %d, want 2", len(byID))
		}
		return byID
	}
	inline := run(func(c *Coordinator) []*Outcome { return processAll(t, c) })
	piped := run(func(c *Coordinator) []*Outcome {
		outs, errs := drainEach(ctx, c, 0)
		if len(errs) != 0 {
			t.Fatalf("DrainEach: %v", errs)
		}
		return outs
	})

	type reportFields struct {
		Type     extract.MessageType
		TypeP    float64
		Domain   string
		Inserted int
	}
	report := func(o *Outcome) reportFields { return reportFields{o.Type, o.TypeP, o.Domain, o.Inserted} }
	if got, want := report(piped[1]), report(inline[1]); got != want {
		t.Errorf("report: DrainEach %+v, ProcessOne %+v", got, want)
	}
	if r := report(inline[1]); r.Type != extract.TypeInformative || r.Inserted != 1 {
		t.Errorf("report into an empty store: %+v", r)
	}
	q1, q2 := inline[2].Response, piped[2].Response
	if q1 == nil || q2 == nil {
		t.Fatalf("question outcomes carry no response: ProcessOne %v, DrainEach %v", q1, q2)
	}
	if q1.Query != q2.Query {
		t.Errorf("question query: ProcessOne %q, DrainEach %q", q1.Query, q2.Query)
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
	if _, err := New(nil, nil, nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

// newTrust returns a source-trust model with the system's starting
// parameters (core.NewTrustModel).
func newTrust(t testing.TB) *uncertain.TrustModel {
	t.Helper()
	m, err := uncertain.NewTrustModel(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
