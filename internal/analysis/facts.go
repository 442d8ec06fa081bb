package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a package-level summary one analyzer exports about a
// function so that analyses of OTHER packages (and other analyzers, via
// Requires) can reason about calls into it without re-reading its body
// — "this function mutates store state", "this function blocks". Facts
// mirror the x/tools fact model but are keyed by the function's
// types.Func.FullName() rather than object identity, because the
// source-checked package and the export-data view of the same package
// are distinct types.Package instances.
//
// A fact type must be a pointer to a JSON-marshalable struct and
// declare a stable name; analyzers list their fact types in
// Analyzer.FactTypes so the vet driver can decode facts read back from
// .vetx files.
type Fact interface {
	// AFact marks the type as a fact (and keeps casual types out).
	AFact()
	// FactName is the stable serialization name, conventionally
	// "<analyzer>.<Type>".
	FactName() string
}

// factKey addresses one fact: the function's fully qualified name and
// the fact type's name.
type factKey struct {
	Obj  string
	Name string
}

// FactSet is the driver-owned store facts flow through: analyses of
// earlier (dependency) packages export into it, analyses of later
// packages import from it. In vet mode it round-trips through the
// .vetx files cmd/go passes between package units. All methods are
// safe for concurrent use.
type FactSet struct {
	mu sync.Mutex
	m  map[factKey]Fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[factKey]Fact)}
}

// export records one fact about fn, replacing any previous fact of the
// same type.
func (fs *FactSet) export(fn *types.Func, f Fact) {
	if fn == nil || f == nil {
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.m[factKey{Obj: fn.FullName(), Name: f.FactName()}] = f
}

// imp copies the stored fact for (fn, type of dst) into dst, reporting
// whether one existed. dst must be a pointer to the same concrete fact
// type that was exported.
func (fs *FactSet) imp(fn *types.Func, dst Fact) bool {
	if fn == nil || dst == nil {
		return false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	src, ok := fs.m[factKey{Obj: fn.FullName(), Name: dst.FactName()}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Type() != sv.Type() || dv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

// serializedFact is the on-disk form of one fact (vetx files).
type serializedFact struct {
	Obj  string          `json:"obj"`
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// Encode serializes every fact in the set, deterministically ordered,
// for a vetx output file. The format is a JSON array; the leading
// magic line lets cmd/go treat the file as opaque bytes.
func (fs *FactSet) Encode() ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]serializedFact, 0, len(fs.m))
	for k, f := range fs.m {
		data, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("analysis: encoding fact %s on %s: %w", k.Name, k.Obj, err)
		}
		out = append(out, serializedFact{Obj: k.Obj, Name: k.Name, Data: data})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj != out[j].Obj {
			return out[i].Obj < out[j].Obj
		}
		return out[i].Name < out[j].Name
	})
	return json.MarshalIndent(out, "", "\t")
}

// Decode merges facts serialized by Encode into the set, resolving
// concrete types through the prototypes (an instance per fact type,
// normally gathered from Analyzer.FactTypes). Unknown fact names are
// skipped — a vetx written by a newer tool version must not wedge an
// older one.
func (fs *FactSet) Decode(data []byte, prototypes []Fact) error {
	var in []serializedFact
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("analysis: decoding fact set: %w", err)
	}
	byName := make(map[string]reflect.Type)
	for _, p := range prototypes {
		byName[p.FactName()] = reflect.TypeOf(p)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, sf := range in {
		typ, ok := byName[sf.Name]
		if !ok || typ.Kind() != reflect.Pointer {
			continue
		}
		f := reflect.New(typ.Elem()).Interface().(Fact)
		if err := json.Unmarshal(sf.Data, f); err != nil {
			return fmt.Errorf("analysis: decoding fact %s on %s: %w", sf.Name, sf.Obj, err)
		}
		fs.m[factKey{Obj: sf.Obj, Name: sf.Name}] = f
	}
	return nil
}
