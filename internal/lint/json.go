package lint

import (
	"encoding/json"
	"path/filepath"
	"strings"
)

// JSON findings output for CI: stable field order, findings pre-sorted by
// (file, line, rule), file paths relative to a base directory so two runs of
// the same tree from different checkouts diff clean. coda-vet exposes it as
// -json; the CI vet job uploads the result as an artifact.

// FindingJSON is the serialized form of one finding.
type FindingJSON struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Rule    string   `json:"rule"`
	Message string   `json:"message"`
	Chain   []string `json:"chain,omitempty"`
}

// MarshalFindings renders findings as an indented JSON array (never null:
// a clean run is []). Paths are relativized against baseDir when possible.
func MarshalFindings(findings []Finding, baseDir string) ([]byte, error) {
	out := make([]FindingJSON, 0, len(findings))
	for _, f := range findings {
		out = append(out, FindingJSON{
			File:    RelPath(baseDir, f.Pos.Filename),
			Line:    f.Pos.Line,
			Rule:    f.Rule,
			Message: f.Message,
			Chain:   f.Chain,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RelPath relativizes path against base for display, falling back to the
// absolute path when it escapes base.
func RelPath(base, path string) string {
	if base == "" || path == "" {
		return path
	}
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}
