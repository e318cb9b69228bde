package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllow names the exported API of internal/ that may stay without a
// non-test caller: the tests of many packages build clusters with them.
var testOnlyAllow = []string{
	"internal/cluster.MustNew",
	"internal/cluster.(*Cluster).Nodes",
	"internal/cluster.(*Cluster).Placement",
}

// TestNoTestOnlyAPI fails when an exported function or method declared in
// internal/ has no reference outside its own declaration in the non-test
// files of internal/, cmd/, examples/ and perfbench/. A method whose name
// and signature match a method of an interface type, declared in the module
// or in the standard library, is exempt: it may be called only through that
// interface. An allowlisted name that gains a non-test caller fails too, so
// the list cannot go stale.
func TestNoTestOnlyAPI(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root, []string{"internal", "cmd", "examples", "perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	ifaces := interfaceMethods(m)

	type decl struct {
		name string
		body ast.Node
	}
	decls := make(map[*types.Func]decl)
	for _, p := range m.Packages {
		if !strings.HasPrefix(p.RelPath, "internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if fd.Recv != nil && implementsInterfaceMethod(fn, ifaces) {
					continue
				}
				decls[fn] = decl{name: apiName(p.RelPath, fn), body: fd}
			}
		}
	}

	used := make(map[*types.Func]bool)
	for _, p := range m.Packages {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			d, ok := decls[fn]
			if !ok || (id.Pos() >= d.body.Pos() && id.Pos() < d.body.End()) {
				continue
			}
			used[fn] = true
		}
	}

	allowed := make(map[string]bool, len(testOnlyAllow))
	for _, name := range testOnlyAllow {
		allowed[name] = true
	}
	var unused, stale []string
	seen := make(map[string]bool)
	for fn, d := range decls {
		seen[d.name] = true
		switch {
		case allowed[d.name] && used[fn]:
			stale = append(stale, d.name)
		case !allowed[d.name] && !used[fn]:
			unused = append(unused, fmt.Sprintf("%s (%s)", d.name, m.Fset.Position(fn.Pos())))
		}
	}
	for _, name := range testOnlyAllow {
		if !seen[name] {
			stale = append(stale, name+" (no longer declared)")
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	for _, u := range unused {
		t.Errorf("exported API with no non-test caller: %s", u)
	}
	for _, s := range stale {
		t.Errorf("testOnlyAllow lists %s, which now has a non-test caller; drop it from the list", s)
	}
}

// ifaceMethod is one method of an interface type.
type ifaceMethod struct {
	iface *types.Interface
	meth  *types.Func
}

// interfaceMethods indexes by name the methods of every non-generic
// interface type declared in a loaded package or in a package it imports,
// transitively.
func interfaceMethods(m *Module) map[string][]ifaceMethod {
	out := make(map[string][]ifaceMethod)
	seen := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				meth := iface.Method(i)
				out[meth.Name()] = append(out[meth.Name()], ifaceMethod{iface, meth})
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range m.Packages {
		visit(p.Types)
	}
	return out
}

// implementsInterfaceMethod reports whether method fn has the name and
// signature of a method of an interface that its receiver type, or a
// pointer to it, implements. types.Identical ignores the receivers.
func implementsInterfaceMethod(fn *types.Func, ifaces map[string][]ifaceMethod) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, im := range ifaces[fn.Name()] {
		if types.Identical(fn.Type(), im.meth.Type()) &&
			(types.Implements(recv, im.iface) || types.Implements(types.NewPointer(recv), im.iface)) {
			return true
		}
	}
	return false
}

// apiName renders fn as "internal/pkg.Func" or "internal/pkg.(*T).Method".
func apiName(relPath string, fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return relPath + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), "*"
	}
	named, _ := recv.(*types.Named)
	return fmt.Sprintf("%s.(%s%s).%s", relPath, ptr, named.Obj().Name(), fn.Name())
}
