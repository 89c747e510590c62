// Fixture for the unsafeconfine analyzer: only internal/variant may import
// package unsafe, because only it carries the GC and checkptr tests that
// make its pointer-plus-length layout safe.
package unsafeconfine

import (
	"unsafe" // want `package unsafe is imported outside internal/variant`

	// Guarded false positive: a blank import is still an import, so only a
	// documented suppression lets one through.
	_ "unsafe" //jsqlint:ignore unsafeconfine fixture exercises suppression
)

// The reinterpretation the flagged import enables: a []byte that aliases
// immutable string memory.
func bytesOf(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
