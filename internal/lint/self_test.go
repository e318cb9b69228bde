package lint

import (
	"sync"
	"testing"
)

// repo caches the one load of the repository's internal/ and cmd/ trees
// that the self-enforcing tests share: type-checking the module from
// source dominates this package's test time.
var repo struct {
	once sync.Once
	m    *Module
	err  error
}

// repoModule returns the shared load, failing t if it failed.
func repoModule(t *testing.T) *Module {
	t.Helper()
	repo.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repo.err = err
			return
		}
		repo.m, repo.err = LoadModule(root, []string{"internal", "cmd"})
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.m
}

// TestRepositoryIsLintClean is the self-enforcing pass: the per-file rules
// run over the repository's own internal/ and cmd/ trees with the
// production config, and any finding fails the build. New code either
// satisfies the determinism invariants or carries a reviewed
// //coda:ordered-ok reason.
func TestRepositoryIsLintClean(t *testing.T) {
	findings := Run(repoModule(t), DefaultConfig())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the sites above or annotate them with %s <reason> (see DESIGN.md)", AnnotationPrefix)
	}
}
