// Package engine seeds //coda:ordered-ok annotations on the lines of
// whole-program findings. Check runs the per-file rules and the vet passes
// over one load, yet an annotation must neither suppress a whole-program
// finding nor count as used by one: only a per-file finding uses it.
package engine

import (
	//coda:ordered-ok fixture: a layering finding has no escape hatch // want "bad-annotation"
	"os" // want "import-layering"
	"time"
)

// Env reaches the host through os: the purity finding survives and the
// annotation, having suppressed nothing, is reported.
func Env() string {
	//coda:ordered-ok fixture: a purity finding has no escape hatch // want "bad-annotation"
	return os.Getenv("CODA_FIXTURE") // want "transitive-purity"
}

// Now reads the wall clock: the annotation suppresses the per-file
// no-wall-clock finding, which uses it, while the purity finding on the
// same line survives.
func Now() int64 {
	//coda:ordered-ok fixture: suppresses the per-file finding only
	return time.Now().UnixNano() // want "transitive-purity"
}
