package lint

import (
	"strconv"
)

// UnsafeConfine keeps package unsafe inside internal/variant. variant.Value
// stores strings and arrays as a raw pointer plus a length and rebuilds
// them with unsafe.String / unsafe.Slice; that layout is sound only while
// every conversion lives next to the invariants it relies on (one live
// allocation per pointer, cap == len) and under the variant package's GC
// and checkptr tests. An unsafe import anywhere else is a second, untested
// memory model.
var UnsafeConfine = &Analyzer{
	Name: "unsafeconfine",
	Doc:  "package unsafe is imported only by internal/variant",
	Run:  runUnsafeConfine,
}

func runUnsafeConfine(pass *Pass) error {
	if hasPathSuffix(pass.Pkg.Path(), "internal/variant") || pass.Pkg.Path() == "internal/variant" {
		return nil // the value model owns the unsafe layout
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "unsafe" {
				pass.Reportf(imp.Pos(), "package unsafe is imported outside internal/variant (keep unsafe layouts in the value model)")
			}
		}
	}
	return nil
}
