package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package of the linted module.
type Package struct {
	// RelPath is the package path relative to the module root, e.g.
	// "internal/core" or "cmd/coda-sim".
	RelPath string
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Info carries the type-checker's expression and identifier facts.
	Info *types.Info
	// Types is the checked package object.
	Types *types.Package
}

// Module is the full unit the linter runs over.
type Module struct {
	// Path is the module import path from go.mod.
	Path string
	// Root is the module root directory.
	Root string
	// Fset positions every file in the module.
	Fset *token.FileSet
	// Packages are the loaded packages in dependency order.
	Packages []*Package
}

// FindModuleRoot walks upward from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs lists directories under root/<tree> that contain at least one
// non-test .go file, skipping testdata and hidden directories.
func packageDirs(root string, trees []string) ([]string, error) {
	var dirs []string
	for _, tree := range trees {
		base := filepath.Join(root, tree)
		if _, err := os.Stat(base); err != nil {
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if isLintableGoFile(e.Name()) {
					dirs = append(dirs, path)
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// isLintableGoFile reports whether name is a non-test Go source file.
func isLintableGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// LoadModule parses and type-checks every package under root's trees
// (e.g. "internal", "cmd"). Type-checking is fully offline: stdlib imports
// resolve from GOROOT source, module-internal imports resolve from the
// packages being loaded.
func LoadModule(root string, trees []string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root, trees)
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Root: root, Fset: token.NewFileSet()}
	if err := m.loadDirs(dirs); err != nil {
		return nil, err
	}
	return m, nil
}

// ResolvePatterns resolves package patterns ("./...", "./internal/sim",
// "internal/sched/...") relative to dir into absolute directory prefixes
// for FilterToDirs. With no arguments or a bare "./..." it returns nil,
// which keeps everything. A pattern naming a directory that does not exist
// is an error — a typo'd path must not look like a clean run — and it is
// caught before any package is loaded.
func ResolvePatterns(args []string, dir string) ([]string, error) {
	var prefixes []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			return nil, nil
		}
		pat, _ := strings.CutSuffix(a, "/...") // a dir prefix covers both the exact and recursive case
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, pat)
		}
		if st, err := os.Stat(abs); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", a)
		}
		prefixes = append(prefixes, abs+string(filepath.Separator))
	}
	return prefixes, nil
}

// FilterToDirs keeps the findings whose file lies under one of the
// ResolvePatterns prefixes; nil prefixes keep everything.
func FilterToDirs(findings []Finding, prefixes []string) []Finding {
	if prefixes == nil {
		return findings
	}
	out := []Finding{}
	for _, f := range findings {
		for _, p := range prefixes {
			if strings.HasPrefix(f.Pos.Filename, p) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// rawPkg is a parsed-but-unchecked package.
type rawPkg struct {
	relPath string
	files   []*ast.File
	imports map[string]bool
}

func (m *Module) loadDirs(dirs []string) error {
	raw := make(map[string]*rawPkg) // import path -> parsed package
	for _, dir := range dirs {
		dir, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(m.Root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		rp := &rawPkg{relPath: rel, imports: make(map[string]bool)}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !isLintableGoFile(e.Name()) {
				continue
			}
			file, err := parser.ParseFile(m.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("lint: %w", err)
			}
			rp.files = append(rp.files, file)
			for _, imp := range file.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil {
					rp.imports[p] = true
				}
			}
		}
		if len(rp.files) > 0 {
			raw[m.importPath(rel)] = rp
		}
	}

	order, err := topoSort(raw)
	if err != nil {
		return err
	}

	imp := &moduleImporter{
		module:  m,
		std:     importer.ForCompiler(m.Fset, "source", nil),
		checked: make(map[string]*types.Package),
	}
	for _, path := range order {
		pkg, err := m.check(path, raw[path], imp)
		if err != nil {
			return err
		}
		imp.checked[path] = pkg.Types
		m.Packages = append(m.Packages, pkg)
	}
	return nil
}

// importPath maps a module-relative package path to its import path.
func (m *Module) importPath(rel string) string {
	if rel == "." || rel == "" {
		return m.Path
	}
	return m.Path + "/" + rel
}

// topoSort orders the packages so every module-internal import is checked
// before its importers.
func topoSort(raw map[string]*rawPkg) ([]string, error) {
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = iota // unvisited
		gray         // on the current DFS path
		black        // done
	)
	state := make(map[string]int, len(raw))
	var order []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		state[p] = gray
		deps := make([]string, 0, len(raw[p].imports))
		for dep := range raw[p].imports {
			if _, ok := raw[dep]; ok {
				deps = append(deps, dep)
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the already-checked
// set and everything else (the stdlib) from GOROOT source.
type moduleImporter struct {
	module  *Module
	std     types.Importer
	checked map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := mi.checked[path]; ok {
		return pkg, nil
	}
	if path == mi.module.Path || strings.HasPrefix(path, mi.module.Path+"/") {
		return nil, fmt.Errorf("lint: module package %s imported but not loaded (is it outside the linted trees?)", path)
	}
	return mi.std.Import(path)
}

// check type-checks one parsed package.
func (m *Module) check(path string, rp *rawPkg, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, rp.files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{
		RelPath: rp.relPath,
		Files:   rp.files,
		Info:    info,
		Types:   tpkg,
	}, nil
}
