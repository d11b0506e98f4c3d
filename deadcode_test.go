//go:build deadcode

package bgpworms

// The deadcode gate (`make deadcode`). The binaries are the API: a
// non-test function under internal/ that the linker puts into none of
// the module's mains is reachable by no user, and either goes or is
// named in ci/deadcode.allow with the reason it stays. Behind a build
// tag because it rebuilds every main without inlining (about a minute
// uncached), which tier-1 should not pay.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowListPath names the functions that stay unlinked, with reasons.
// (modulePath is declared beside the layering gate, which always builds.)
const allowListPath = "ci/deadcode.allow"

func TestDeadcode(t *testing.T) {
	declared := declaredFuncs(t, "internal")
	linked := linkedSymbols(t)
	allowed := readAllowList(t)

	var dead []string
	for _, name := range declared {
		switch {
		case linked[modulePath+"/"+name]:
			if allowed[name] != "" {
				t.Errorf("%s: %s is linked into a binary now; drop the line", allowListPath, name)
			}
		case allowed[name] == "":
			dead = append(dead, name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s: %s is declared nowhere under internal/; drop the line", allowListPath, name)
	}
	if len(dead) > 0 {
		t.Errorf("%d functions under internal/ are linked into no binary and not in %s:\n  %s",
			len(dead), allowListPath, strings.Join(dead, "\n  "))
	}
}

// declaredFuncs lists every function and method declared in a non-test
// file under root, spelled as the linker spells it minus the module
// path: internal/pkg.Func, internal/pkg.Type.Method,
// internal/pkg.(*Type).Method. Type parameters are dropped.
func declaredFuncs(t *testing.T, root string) []string {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvString(fn.Recv.List[0].Type) + "." + name
			}
			out = append(out, pkg+"."+name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(e.X) + ")"
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// linkedSymbols builds every main package of the module with inlining
// off — an inlined function leaves no symbol — and returns the union of
// their symbol tables, instantiation brackets removed.
func linkedSymbols(t *testing.T) map[string]bool {
	list, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(list))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	bin := filepath.Join(t.TempDir(), "main") // one at a time, each overwriting the last
	linked := map[string]bool{}
	for _, pkg := range mains {
		if out, err := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		nm, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", pkg, err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(nm)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "  4a1b20 T bgpworms/internal/netx.(*Trie[go.shape.uint32]).Insert"
			fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if sym := fields[len(fields)-1]; strings.HasPrefix(sym, modulePath+"/internal/") {
				linked[stripBrackets(sym)] = true
			}
		}
	}
	t.Logf("%d mains, %d internal/ symbols", len(mains), len(linked))
	return linked
}

func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowList parses "name  reason..." lines; '#' starts a comment
// line. A name without a reason is an error.
func readAllowList(t *testing.T) map[string]string {
	data, err := os.ReadFile(allowListPath)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", allowListPath, i+1, name)
			reason = "?"
		}
		allowed[name] = reason
	}
	return allowed
}
