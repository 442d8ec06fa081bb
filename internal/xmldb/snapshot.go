package xmldb

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// Snapshot format: an XML envelope around the collections, each record
// carrying its metadata as attributes and its probabilistic document
// verbatim as inner XML. The format is self-contained — Restore on an
// empty database reproduces the original byte-for-byte on re-Snapshot
// (modulo map iteration, which the sorted collection order removes).

type snapEnvelope struct {
	XMLName     xml.Name         `xml:"xmldb"`
	NextID      int64            `xml:"next-id,attr"`
	Collections []snapCollection `xml:"collection"`
}

type snapCollection struct {
	Name    string       `xml:"name,attr"`
	Records []snapRecord `xml:"record"`
}

type snapRecord struct {
	ID        int64    `xml:"id,attr"`
	Certainty float64  `xml:"certainty,attr"`
	Lat       *float64 `xml:"lat,attr,omitempty"`
	Lon       *float64 `xml:"lon,attr,omitempty"`
	Updated   string   `xml:"updated,attr"`
	Inner     string   `xml:",innerxml"`
}

// Snapshot writes the entire database to w. The snapshot is a consistent
// point-in-time image: the database is read-locked for the duration.
func (db *DB) Snapshot(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	env := snapEnvelope{NextID: db.nextID}
	for _, name := range db.collectionNamesLocked() {
		c := db.collections[name]
		sc := snapCollection{Name: name, Records: make([]snapRecord, 0, len(c.order))}
		for _, id := range c.order {
			rec := c.records[id]
			docXML, err := pxml.Marshal(rec.Doc)
			if err != nil {
				return fmt.Errorf("xmldb: snapshot %s/%d: %w", name, id, err)
			}
			sr := snapRecord{
				ID:        rec.ID,
				Certainty: float64(rec.Certainty),
				Updated:   rec.Updated.UTC().Format(time.RFC3339Nano),
				Inner:     docXML,
			}
			if rec.Location != nil {
				lat, lon := rec.Location.Lat, rec.Location.Lon
				sr.Lat, sr.Lon = &lat, &lon
			}
			sc.Records = append(sc.Records, sr)
		}
		env.Collections = append(env.Collections, sc)
	}

	if _, err := io.WriteString(w, xml.Header); err != nil {
		return fmt.Errorf("xmldb: snapshot: %w", err)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("xmldb: snapshot: %w", err)
	}
	return nil
}

func (db *DB) collectionNamesLocked() []string {
	out := make([]string, 0, len(db.collections))
	for name := range db.collections {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Restore replaces the database contents with the snapshot read from r.
// On any error the database is left unchanged: the snapshot is fully
// validated (document structure, certainty range, coordinates, duplicate
// IDs) before the swap.
func (db *DB) Restore(r io.Reader) error {
	st, err := DecodeSnapshot(r)
	if err != nil {
		return err
	}
	db.Install(st)
	return nil
}

// Staged is a decoded, validated snapshot that no database holds yet.
// Install it into exactly one database.
type Staged struct {
	collections map[string]*Collection
	nextID      int64
}

// DecodeSnapshot reads and validates a snapshot written by Snapshot
// without touching any database.
func DecodeSnapshot(r io.Reader) (*Staged, error) {
	var env snapEnvelope
	if err := xml.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("xmldb: restore: %w", err)
	}

	staged := make(map[string]*Collection, len(env.Collections))
	maxID := int64(0)
	seen := make(map[int64]bool)
	for _, sc := range env.Collections {
		if sc.Name == "" {
			return nil, fmt.Errorf("xmldb: restore: collection with empty name")
		}
		if _, dup := staged[sc.Name]; dup {
			return nil, fmt.Errorf("xmldb: restore: duplicate collection %q", sc.Name)
		}
		c := &Collection{
			name:    sc.Name,
			records: make(map[int64]*Record, len(sc.Records)),
			spatial: geo.NewRTree[int64](),
		}
		for _, sr := range sc.Records {
			if sr.ID <= 0 {
				return nil, fmt.Errorf("xmldb: restore: %s: invalid record id %d", sc.Name, sr.ID)
			}
			if seen[sr.ID] {
				return nil, fmt.Errorf("xmldb: restore: duplicate record id %d", sr.ID)
			}
			seen[sr.ID] = true
			cf := uncertain.CF(sr.Certainty)
			if err := cf.Validate(); err != nil {
				return nil, fmt.Errorf("xmldb: restore: %s/%d: %w", sc.Name, sr.ID, err)
			}
			doc, err := pxml.Unmarshal(sr.Inner)
			if err != nil {
				return nil, fmt.Errorf("xmldb: restore: %s/%d: %w", sc.Name, sr.ID, err)
			}
			updated, err := time.Parse(time.RFC3339Nano, sr.Updated)
			if err != nil {
				return nil, fmt.Errorf("xmldb: restore: %s/%d: bad timestamp: %w", sc.Name, sr.ID, err)
			}
			rec := &Record{ID: sr.ID, Doc: doc, Certainty: cf, Updated: updated}
			if (sr.Lat == nil) != (sr.Lon == nil) {
				return nil, fmt.Errorf("xmldb: restore: %s/%d: partial location", sc.Name, sr.ID)
			}
			if sr.Lat != nil {
				p, err := geo.NewPoint(*sr.Lat, *sr.Lon)
				if err != nil {
					return nil, fmt.Errorf("xmldb: restore: %s/%d: %w", sc.Name, sr.ID, err)
				}
				rec.Location = &p
				if err := c.spatial.Insert(geo.BBoxOf(p), rec.ID); err != nil {
					return nil, fmt.Errorf("xmldb: restore: %s/%d: spatial index: %w", sc.Name, sr.ID, err)
				}
			}
			c.records[rec.ID] = rec
			c.order = append(c.order, rec.ID)
			if rec.ID > maxID {
				maxID = rec.ID
			}
		}
		staged[sc.Name] = c
	}

	nextID := env.NextID
	if nextID <= maxID {
		nextID = maxID + 1
	}
	return &Staged{collections: staged, nextID: nextID}, nil
}

// Install replaces the database contents with a decoded snapshot.
func (db *DB) Install(st *Staged) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.collections = st.collections
	db.nextID = st.nextID
	// A restore replaces everything the database holds; any cached view
	// keyed to an older version must be invalidated.
	db.version.Add(1)
}
