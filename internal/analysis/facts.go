package analysis

import (
	"go/types"
	"reflect"
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
// A fact type must be a pointer to a struct.
type Fact interface {
	// AFact marks the type as a fact (and keeps casual types out).
	AFact()
}

// factKey addresses one fact: the function's fully qualified name and
// the fact's Go type.
type factKey struct {
	fn  string
	typ reflect.Type
}

// factSet is the store facts flow through during one RunPackages call:
// analyses of earlier (dependency) packages export into it, analyses of
// later packages import from it. The driver analyzes sequentially, so
// it is a plain map.
type factSet map[factKey]Fact

// export records one fact about fn, replacing any previous fact of the
// same type.
func (fs factSet) export(fn *types.Func, f Fact) {
	if fn == nil || f == nil {
		return
	}
	fs[factKey{fn.FullName(), reflect.TypeOf(f)}] = f
}

// imp copies the stored fact for (fn, type of dst) into dst, reporting
// whether one existed. dst must be a pointer to the same concrete fact
// type that was exported.
func (fs factSet) imp(fn *types.Func, dst Fact) bool {
	if fn == nil || dst == nil {
		return false
	}
	src, ok := fs[factKey{fn.FullName(), reflect.TypeOf(dst)}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	if dv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(reflect.ValueOf(src).Elem())
	return true
}
