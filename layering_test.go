package bgpworms

// The layering gate (`make lint`, and tier-1): the import graph keeps
// one routing record below everything that consumes it. internal/feed
// sits on the wire and simulation layers alone; watch and semantics
// never reach up into core's batch pipeline; the record's old
// watch-package names survive only for the frozen benchmark; and a
// world is named on a command line by gen.NewFlags, not by each binary.

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const modulePath = "bgpworms"

// recordPackage may import the standard library and these alone.
const recordPackage = "internal/feed"

var recordImports = []string{"internal/bgp", "internal/mrt", "internal/policy", "internal/simnet", "internal/topo"}

func TestLayering(t *testing.T) {
	imports := moduleImports(t)

	for _, imp := range imports[recordPackage] {
		if !slices.Contains(recordImports, imp) {
			t.Errorf("%s imports %s; it may import only the standard library and %v", recordPackage, imp, recordImports)
		}
	}

	for _, pkg := range []string{"internal/watch", "internal/semantics"} {
		if deps := transitive(imports, pkg); deps["internal/core"] {
			t.Errorf("%s depends on internal/core; the record and its decoder live in %s", pkg, recordPackage)
		}
	}

	for _, use := range retiredWatchNames(t) {
		t.Errorf("%s: names %s; take feed.Event / feed.StreamMRT (only bench/ may use the old names)", use.pos, use.name)
	}

	for _, use := range worldFlagRegistrations(t) {
		t.Errorf("%s: registers %s itself; a binary takes -scale/-seed from gen.NewFlags", use.pos, use.name)
	}
}

// moduleImports maps each package under internal/ (as "internal/x") to
// the module packages its non-test files import, the standard library
// left out.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		var mine []string
		for _, imp := range pkg.Imports {
			if rest, ok := strings.CutPrefix(imp, modulePath+"/"); ok {
				mine = append(mine, rest)
			}
		}
		out[filepath.ToSlash(path)] = mine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[recordPackage]) == 0 {
		t.Fatalf("found no imports for %s; is the gate reading the right tree?", recordPackage)
	}
	return out
}

// transitive returns every module package pkg depends on.
func transitive(imports map[string][]string, pkg string) map[string]bool {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(p string) {
		for _, imp := range imports[p] {
			if !seen[imp] {
				seen[imp] = true
				walk(imp)
			}
		}
	}
	walk(pkg)
	return seen
}

type nameUse struct {
	pos  token.Position
	name string
}

// retiredWatchNames finds every use, outside bench/, of watch.Event and
// watch.StreamMRT — through the package selector anywhere, and as bare
// names inside package watch itself, where only their declarations may
// mention them.
func retiredWatchNames(t *testing.T) []nameUse {
	t.Helper()
	retired := map[string]bool{"Event": true, "StreamMRT": true}
	fset := token.NewFileSet()
	var uses []nameUse
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		watchName := ""
		for _, spec := range f.Imports {
			if spec.Path.Value == `"`+modulePath+`/internal/watch"` {
				watchName = "watch"
				if spec.Name != nil {
					watchName = spec.Name.Name
				}
			}
		}
		inWatch := filepath.ToSlash(filepath.Dir(path)) == "internal/watch" && f.Name.Name == "watch"
		// Selector tails (feed.Event) and the alias declarations
		// themselves are not uses of the bare name.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && watchName != "" && x.Name == watchName && retired[n.Sel.Name] {
					uses = append(uses, nameUse{fset.Position(n.Pos()), "watch." + n.Sel.Name})
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, name := range n.Names {
					skip[name] = true
				}
			case *ast.Ident:
				if inWatch && retired[n.Name] && !skip[n] {
					uses = append(uses, nameUse{fset.Position(n.Pos()), "watch." + n.Name})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return uses
}

// worldFlagRegistrations finds every flag named "scale" or "seed" that a
// file under cmd/ registers itself: a call to one of the flag package's
// definers (flag.String, fs.Int64Var, ...) with that name as an
// argument.
func worldFlagRegistrations(t *testing.T) []nameUse {
	t.Helper()
	definers := strings.Fields("Bool BoolVar BoolFunc Duration DurationVar Float64 Float64Var Func Int IntVar Int64 Int64Var String StringVar TextVar Uint UintVar Uint64 Uint64Var Var")
	fset := token.NewFileSet()
	var uses []nameUse
	files, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("found no files under cmd/; is the gate reading the right tree?")
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !slices.Contains(definers, sel.Sel.Name) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && (lit.Value == `"scale"` || lit.Value == `"seed"`) {
					uses = append(uses, nameUse{fset.Position(lit.Pos()), "-" + strings.Trim(lit.Value, `"`)})
				}
			}
			return true
		})
	}
	return uses
}
