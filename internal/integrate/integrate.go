// Package integrate is the paper's Data Integration (DI) service: it
// merges freshly extracted templates with the information already in the
// probabilistic spatial XML database, "finds the conflicting facts, and
// tries to resolve such conflicts using the knowledgebase independently of
// the user by assigning several levels of certainty to each new piece of
// information".
//
// Duplicate detection matches the template's key field against stored
// records (normalised, misspelling-tolerant, optionally location-blocked);
// field-level conflicts resolve per the KB's policies (distribution
// pooling, trust-weighted choice, newest-wins); record certainty evolves
// by MYCIN combination of trust-attenuated evidence; and source trust is
// fed back from agreement and contradiction.
package integrate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/extract"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pxml"
	"repro/internal/text"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

// Integration outcome counters: inserts create records, merges fold a
// report into an existing one — their ratio is the live view of the
// duplicate-detection behavior the EXPERIMENTS tables measure offline.
var (
	mActionsTotal = obs.Default().Counter("neogeo_integrate_actions_total",
		"Template integrations by action.", "action")
	actInserted = mActionsTotal.With("inserted")
	actMerged   = mActionsTotal.With("merged")
	actErrored  = mActionsTotal.With("error")
)

// Service is the DI module. Integrate, IntegrateNaive, IntegrateGroups
// and Decay are safe for concurrent use: each runs as one atomic
// database batch, so find-duplicate-then-update sequences cannot
// interleave.
type Service struct {
	kb    *kb.KB
	trust *uncertain.TrustModel
	db    *xmldb.DB
}

// Duplicate detection: matchThreshold is the minimum name similarity
// treated as the same entity, and blockRadiusMeters restricts duplicate
// candidates to this distance when both sides have locations.
const (
	matchThreshold    = 0.75
	blockRadiusMeters = 50000
)

// NewService wires the DI service. trust is the system's source-trust
// model: integration reads it to weigh evidence and feeds agreement and
// contradiction back into it.
func NewService(k *kb.KB, trust *uncertain.TrustModel, db *xmldb.DB) (*Service, error) {
	if k == nil || trust == nil || db == nil {
		return nil, fmt.Errorf("integrate: nil dependency")
	}
	return &Service{kb: k, trust: trust, db: db}, nil
}

// Action says what integration did with a template.
type Action string

// Actions.
const (
	ActionInserted Action = "inserted"
	ActionMerged   Action = "merged"
)

// Conflict records one field-level disagreement that integration resolved.
type Conflict struct {
	Field    string
	Stored   string
	Incoming string
	Kept     string
}

// Result reports one integration.
type Result struct {
	Action    Action
	RecordID  int64
	Conflicts []Conflict
}

// Integrate merges one extracted template into the database.
func (s *Service) Integrate(tpl extract.Template) (*Result, error) {
	var res *Result
	err := s.db.Batch(func(tx *xmldb.Tx) error {
		var err error
		res, err = s.integrateIn(tx, tpl)
		return err
	})
	return res, err
}

// BatchResult pairs one template's integration outcome with its error.
type BatchResult struct {
	Result *Result
	Err    error
}

// IntegrateGroups merges several independent template groups (one group
// per source message) under a single database lock acquisition. Within a
// group templates integrate in order and the group stops at its first
// error — the same partial-application semantics as integrating a
// message's templates one call at a time — while a failing group never
// stops the others. Results are positionally parallel to groups, short
// where a group stopped early.
func (s *Service) IntegrateGroups(groups [][]extract.Template) [][]BatchResult {
	out := make([][]BatchResult, len(groups))
	_ = s.db.Batch(func(tx *xmldb.Tx) error {
		for gi, group := range groups {
			results := make([]BatchResult, 0, len(group))
			for _, tpl := range group {
				res, err := s.integrateIn(tx, tpl)
				results = append(results, BatchResult{Result: res, Err: err})
				if err != nil {
					break
				}
			}
			out[gi] = results
		}
		return nil
	})
	return out
}

func (s *Service) integrateIn(tx *xmldb.Tx, tpl extract.Template) (*Result, error) {
	res, err := s.integrateOne(tx, tpl)
	switch {
	case err != nil:
		actErrored.Inc()
	case res.Action == ActionInserted:
		actInserted.Inc()
	case res.Action == ActionMerged:
		actMerged.Inc()
	}
	return res, err
}

func (s *Service) integrateOne(tx *xmldb.Tx, tpl extract.Template) (*Result, error) {
	domain, ok := s.kb.Domain(tpl.Domain)
	if !ok {
		return nil, fmt.Errorf("integrate: unknown domain %q", tpl.Domain)
	}
	key, ok := tpl.Fields[domain.KeyField]
	if !ok || key.Text == "" {
		return nil, fmt.Errorf("integrate: template missing key field %s", domain.KeyField)
	}
	existing := s.findDuplicate(tx, domain, tpl)
	if existing == nil {
		return s.insert(tx, domain, tpl)
	}
	return s.merge(tx, domain, existing, tpl)
}

// IntegrateNaive is the last-write-wins baseline for experiment E7: no
// duplicate merging beyond key equality, no distribution pooling, no
// trust — the incoming template simply replaces the stored record.
func (s *Service) IntegrateNaive(tpl extract.Template) (*Result, error) {
	var res *Result
	err := s.db.Batch(func(tx *xmldb.Tx) error {
		var err error
		res, err = s.integrateNaiveIn(tx, tpl)
		return err
	})
	return res, err
}

func (s *Service) integrateNaiveIn(tx *xmldb.Tx, tpl extract.Template) (*Result, error) {
	domain, ok := s.kb.Domain(tpl.Domain)
	if !ok {
		return nil, fmt.Errorf("integrate: unknown domain %q", tpl.Domain)
	}
	existing := s.findDuplicate(tx, domain, tpl)
	doc, err := tpl.ToDoc()
	if err != nil {
		return nil, err
	}
	if existing == nil {
		rec, err := tx.Insert(domain.Collection, doc, tpl.Certainty, tpl.Location)
		if err != nil {
			return nil, err
		}
		return &Result{Action: ActionInserted, RecordID: rec.ID}, nil
	}
	if err := tx.Update(domain.Collection, existing.ID, doc, tpl.Certainty, tpl.Location); err != nil {
		return nil, err
	}
	return &Result{Action: ActionMerged, RecordID: existing.ID}, nil
}

// findDuplicate scans the domain collection for a record whose key field
// names the same entity, using location blocking when available.
func (s *Service) findDuplicate(tx *xmldb.Tx, domain kb.Domain, tpl extract.Template) *xmldb.Record {
	keyText := text.NormalizeName(tpl.Fields[domain.KeyField].Text)
	var best *xmldb.Record
	bestSim := matchThreshold
	consider := func(rec *xmldb.Record) {
		stored, ok := recordKey(rec, domain.KeyField)
		if !ok {
			return
		}
		sim := nameSimilarity(keyText, stored)
		if sim >= bestSim {
			// Location veto: same name far away is a different entity.
			if tpl.Location != nil && rec.Location != nil &&
				tpl.Location.DistanceMeters(*rec.Location) > blockRadiusMeters {
				return
			}
			best, bestSim = rec, sim
		}
	}
	if tpl.Location != nil {
		for _, id := range tx.Near(domain.Collection, *tpl.Location, blockRadiusMeters) {
			if rec, ok := tx.Get(domain.Collection, id); ok {
				consider(rec)
			}
		}
		// Also consider location-less records by name.
		tx.Each(domain.Collection, func(rec *xmldb.Record) bool {
			if rec.Location == nil {
				consider(rec)
			}
			return true
		})
		return best
	}
	tx.Each(domain.Collection, func(rec *xmldb.Record) bool {
		consider(rec)
		return true
	})
	return best
}

// nameSimilarity blends token-set and edit similarity, so both "Hotel
// Essex House"/"Essex House Hotel" and "movenpick"/"movenpik" match.
func nameSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	return math.Max(text.JaccardTokens(a, b), text.Similarity(a, b))
}

// recordKey reads the normalised key field of a stored record.
func recordKey(rec *xmldb.Record, field string) (string, bool) {
	n, _ := rec.Doc.FirstChild(field)
	if n == nil {
		return "", false
	}
	v := n.TextContent()
	if v == "" {
		return "", false
	}
	return text.NormalizeName(v), true
}

func (s *Service) insert(tx *xmldb.Tx, domain kb.Domain, tpl extract.Template) (*Result, error) {
	doc, err := tpl.ToDoc()
	if err != nil {
		return nil, err
	}
	setObservedAt(doc, tpl.Extracted)
	addSourceTrace(doc, tpl.Source)
	cf := uncertain.Attenuate(tpl.Certainty, s.trust.Reliability(tpl.Source))
	rec, err := tx.Insert(domain.Collection, doc, cf, tpl.Location)
	if err != nil {
		return nil, err
	}
	tx.Label(string(ActionInserted), domain.Collection, rec.ID)
	return &Result{Action: ActionInserted, RecordID: rec.ID}, nil
}

// merge folds the template into an existing record field by field.
func (s *Service) merge(tx *xmldb.Tx, domain kb.Domain, rec *xmldb.Record, tpl extract.Template) (*Result, error) {
	res := &Result{Action: ActionMerged, RecordID: rec.ID}
	trust := s.trust.Reliability(tpl.Source)
	doc := rec.Doc.Clone()
	agreed, contradicted := 0, 0
	// newest-wins compares observation times (the "when" of W4), so a
	// late-arriving report about an older state cannot clobber fresher
	// information. Records integrated before observation stamping exist
	// only in tests; their zero time makes any incoming report newer.
	storedObs := observedAt(doc)
	incomingNewer := !tpl.Extracted.Before(storedObs)

	for _, spec := range domain.Fields {
		fv, ok := tpl.Fields[spec.Name]
		if !ok {
			continue
		}
		// Key-field agreement is how the duplicate was found; it carries
		// no corroboration signal.
		trivial := spec.Name == domain.KeyField
		node, _ := doc.FirstChild(spec.Name)
		switch spec.Kind {
		case kb.FieldDist, kb.FieldAttitude:
			if fv.Dist == nil {
				continue
			}
			if node == nil {
				mux, err := extract.DistToMux(fv.Dist)
				if err != nil {
					continue
				}
				doc.Add(pxml.Elem(spec.Name, mux))
				continue
			}
			stored := extract.MuxToDist(node)
			storedTop, _ := stored.Top()
			newTop, _ := fv.Dist.Top()
			if storedTop.Name != "" && newTop.Name != "" {
				if storedTop.Name == newTop.Name {
					if !trivial {
						agreed++
					}
				} else {
					contradicted++
					res.Conflicts = append(res.Conflicts, Conflict{
						Field: spec.Name, Stored: storedTop.Name,
						Incoming: newTop.Name,
					})
				}
			}
			// State-like distributions (traffic Condition) replace under
			// newest-wins: the road being clear *now* supersedes this
			// morning's jam rather than pooling with it. Stale incoming
			// reports leave the stored state untouched.
			var merged *uncertain.Dist
			if spec.Policy == kb.PolicyNewest {
				if incomingNewer {
					merged = fv.Dist.Clone()
				} else {
					merged = stored.Clone()
				}
			} else {
				merged = stored.Clone()
				if err := merged.Merge(fv.Dist, trust); err != nil {
					return nil, err
				}
			}
			mux, err := extract.DistToMux(merged)
			if err != nil {
				return nil, err
			}
			node.Children = []*pxml.Node{mux}
			if len(res.Conflicts) > 0 {
				c := &res.Conflicts[len(res.Conflicts)-1]
				if c.Field == spec.Name && c.Kept == "" {
					if top, ok := merged.Top(); ok {
						c.Kept = top.Name
					}
				}
			}
		case kb.FieldText, kb.FieldLocation, kb.FieldNumber:
			incoming := fv.Text
			if spec.Kind == kb.FieldNumber {
				incoming = strconv.FormatFloat(fv.Num, 'g', -1, 64)
			}
			if node == nil {
				doc.Add(pxml.ElemText(spec.Name, incoming))
				continue
			}
			stored := node.TextContent()
			if valuesEqual(spec.Kind, stored, incoming) {
				if !trivial {
					agreed++
				}
				continue
			}
			contradicted++
			kept := stored
			switch spec.Policy {
			case kb.PolicyNewest:
				if incomingNewer {
					kept = incoming
				}
			case kb.PolicyTrustWeighted:
				// Replace only when the incoming trust-weighted certainty
				// beats the record's standing certainty.
				incomingCF := uncertain.Attenuate(fv.CF, trust)
				if float64(incomingCF) > float64(rec.Certainty) {
					kept = incoming
				}
			}
			if kept != stored {
				node.Children = []*pxml.Node{pxml.Text(kept)}
			}
			res.Conflicts = append(res.Conflicts, Conflict{
				Field: spec.Name, Stored: stored, Incoming: incoming, Kept: kept,
			})
		}
	}

	// Trust feedback: contradicting an established fact is the rarer,
	// more diagnostic event, so any contradiction counts against the
	// source; corroboration counts for it only on conflict-free merges.
	if contradicted > 0 {
		s.trust.Contradict(tpl.Source)
	} else if agreed > 0 {
		s.trust.Confirm(tpl.Source)
	}

	// Record certainty: MYCIN-combine the standing certainty with the new
	// trust-attenuated evidence. Contradictory messages contribute
	// (weak) negative evidence.
	evidence := uncertain.Attenuate(tpl.Certainty, trust)
	if contradicted > agreed {
		evidence = uncertain.Attenuate(-evidence, 0.5)
	}
	newCF := uncertain.Combine(rec.Certainty, evidence)

	if incomingNewer {
		setObservedAt(doc, tpl.Extracted)
	}
	addSourceTrace(doc, tpl.Source)

	// A nil location leaves the stored one untouched (xmldb semantics).
	if err := tx.Update(domain.Collection, rec.ID, doc, newCF, tpl.Location); err != nil {
		return nil, err
	}
	tx.Label(string(ActionMerged), domain.Collection, rec.ID)
	return res, nil
}

func valuesEqual(kind kb.FieldKind, a, b string) bool {
	if kind == kb.FieldNumber {
		fa, errA := strconv.ParseFloat(a, 64)
		fb, errB := strconv.ParseFloat(b, 64)
		if errA == nil && errB == nil {
			return fa == fb
		}
	}
	return text.NormalizeName(a) == text.NormalizeName(b)
}

// Decay ages a collection's certainty factors: each record's CF is scaled
// by decayPerDay^(days since update), implementing "the validation of the
// information over time. Geographical information is dynamic … always
// changing over time". Records whose certainty drops below floor are
// deleted. It returns (decayed, deleted).
func (s *Service) Decay(collection string, now time.Time, floor uncertain.CF) (int, int, error) {
	type change struct {
		id  int64
		doc *pxml.Node
		cf  uncertain.CF
		loc *geo.Point
		del bool
	}
	var changes []change
	rate := s.kb.DecayPerDay()
	decayed, deleted := 0, 0
	err := s.db.Batch(func(tx *xmldb.Tx) error {
		tx.Each(collection, func(rec *xmldb.Record) bool {
			days := now.Sub(rec.Updated).Hours() / 24
			if days <= 0 {
				return true
			}
			factor := math.Pow(rate, days)
			cf := uncertain.Attenuate(rec.Certainty, factor)
			changes = append(changes, change{
				id: rec.ID, doc: rec.Doc, cf: cf, loc: rec.Location,
				del: float64(cf) < float64(floor),
			})
			return true
		})
		for _, c := range changes {
			if c.del {
				if err := tx.Delete(collection, c.id); err != nil {
					return err
				}
				deleted++
				continue
			}
			if err := tx.Update(collection, c.id, c.doc, c.cf, c.loc); err != nil {
				return err
			}
			decayed++
		}
		return nil
	})
	return decayed, deleted, err
}

// observedAtField is the document element carrying the record's
// observation timestamp (the latest "when" integrated into it).
const observedAtField = "Observed_At"

// setObservedAt stamps (or replaces) the document's observation time.
func setObservedAt(doc *pxml.Node, t time.Time) {
	stamp := t.UTC().Format(time.RFC3339Nano)
	if n, _ := doc.FirstChild(observedAtField); n != nil {
		n.Children = []*pxml.Node{pxml.Text(stamp)}
		return
	}
	doc.Add(pxml.ElemText(observedAtField, stamp))
}

// SourceTraceField is the document element recording which sources
// contributed evidence to the record — the per-record provenance the
// feedback subsystem needs to credit or blame the right users when a
// human verdict arrives about an answer. Stored as a comma-joined
// sorted set, capped so a viral entity cannot grow its record without
// bound.
const SourceTraceField = "Source_Trace"

// maxTraceSources caps the per-record provenance set.
const maxTraceSources = 16

// addSourceTrace folds one contributing source into the document's
// provenance set.
func addSourceTrace(doc *pxml.Node, source string) {
	source = strings.TrimSpace(source)
	if source == "" {
		return
	}
	existing := TraceSources(doc)
	for _, s := range existing {
		if s == source {
			return
		}
	}
	if len(existing) >= maxTraceSources {
		return
	}
	existing = append(existing, source)
	sort.Strings(existing)
	joined := strings.Join(existing, ",")
	if n, _ := doc.FirstChild(SourceTraceField); n != nil {
		n.Children = []*pxml.Node{pxml.Text(joined)}
		return
	}
	doc.Add(pxml.ElemText(SourceTraceField, joined))
}

// TraceSources reads a record's contributing sources (empty for records
// integrated before provenance stamping existed).
func TraceSources(doc *pxml.Node) []string {
	n, _ := doc.FirstChild(SourceTraceField)
	if n == nil {
		return nil
	}
	raw := strings.Split(n.TextContent(), ",")
	out := make([]string, 0, len(raw))
	for _, s := range raw {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// observedAt reads the document's observation time; the zero time when the
// document carries none or it fails to parse.
func observedAt(doc *pxml.Node) time.Time {
	n, _ := doc.FirstChild(observedAtField)
	if n == nil {
		return time.Time{}
	}
	t, err := time.Parse(time.RFC3339Nano, n.TextContent())
	if err != nil {
		return time.Time{}
	}
	return t
}
