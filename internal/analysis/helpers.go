package analysis

import (
	"go/ast"
	"go/types"
)

// CalleeFunc resolves the *types.Func a call expression invokes, or
// nil when the callee is not a statically known function or method
// (e.g. a call through a function-typed variable).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFunc reports whether the call invokes the package-level function
// (or method) with the given fully qualified name, e.g. "os.Rename" or
// "(*os.File).Sync".
func IsFunc(info *types.Info, call *ast.CallExpr, fullName string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.FullName() == fullName
}

// ErrorType is the universe error interface.
var ErrorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorType reports whether t is exactly the error interface or a
// type that implements it (excluding the empty any).
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, ErrorType) || types.Implements(types.NewPointer(t), ErrorType)
}

// ReturnsError reports whether the call produces at least one value of
// type error (last position or anywhere in the result tuple).
func ReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorInterface(t.At(i).Type()) {
				return true
			}
		}
	default:
		return isErrorInterface(t)
	}
	return false
}

// isErrorInterface reports whether t is the error interface itself
// (not merely a concrete type implementing it): discarded values of
// concrete types are for the caller to judge, discarded `error`
// results are what the errdiscipline invariant is about.
func isErrorInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && types.Identical(iface, ErrorType)
}

// NamedType reports the package path and type name behind t,
// dereferencing one level of pointer, or ok=false for unnamed types.
func NamedType(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}
