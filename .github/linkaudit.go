// Command linkaudit reports every production function that no binary links.
//
// Production is what the binaries run: every cmd/* and examples/* program
// and the benchmark's bench/cmd/hbbench. The audit builds each of them with
// inlining off (-gcflags=all=-l, so a function the linker keeps has its own
// symbol), reads the symbols with `go tool nm`, and matches them against
// every non-test func declared outside bench/. A main package is checked
// against its own binary only. Each function no binary links, and not on
// the allowlist below, is printed as file:line and the audit exits 1; so is
// an allowlist entry that covers nothing unlinked.
//
// Run it from the repository root:
//
//	go run .github/linkaudit.go
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlist names the production functions no binary links, keyed as the
// audit prints them: package directory, then F, T.M or (*T).M. An entry
// ending in "/" covers a whole package. Each entry names its test users and
// why no linked API serves them.
var allowlist = map[string]bool{
	// The shared test-helper package: the dist, hbg and stream tests build
	// wire frames with it, so that each need not carry its own copy.
	"internal/wire/wiretest/": true,
	// The OSPF grid of E9 (BenchmarkDistributedVerification) and
	// BenchmarkDistThroughput, also built by the dist and network tests.
	// No binary runs a grid, and E9's byte and message rows depend on
	// exactly this topology, so the tests of three packages share it here.
	"internal/network.BuildGridOSPF": true,
	// The interning counters: the route tests and network's
	// TestScaleInternRatio read them to measure attribute sharing. No binary
	// reports them, and the ratio test needs network's builders, which the
	// route package's tests cannot import.
	"internal/route.(*Interner).Stats": true,
}

// nmLine is one `go tool nm` line: address (absent for undefined symbols),
// type, then a name that runs to the end of the line, since a generic
// shape name contains spaces.
var nmLine = regexp.MustCompile(`^\s*(?:[0-9a-f]+\s+)?\S (.+)$`)

type decl struct {
	key, rel string // nm's name, and the name with the module path trimmed
	pos      token.Position
	bin      string // for a main package, the directory of its binary
}

func main() {
	module, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		fatal(fmt.Errorf("go list -m: %w", err))
	}
	decls, mains, err := declarations(strings.TrimSpace(string(module)))
	if err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp("", "linkaudit")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	// linked[""] holds every library symbol any binary links; linked[dir]
	// the main-package symbols of dir's own binary.
	linked := map[string]map[string]bool{"": {}}
	for i, dir := range append(mains, "bench/cmd/hbbench") {
		bin := filepath.Join(tmp, fmt.Sprint(i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, "./"+dir)
		if dir == "bench/cmd/hbbench" { // a nested module
			build = exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, "./cmd/hbbench")
			build.Dir = "bench"
		}
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fatal(fmt.Errorf("build %s: %w", dir, err))
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			fatal(fmt.Errorf("nm %s: %w", dir, err))
		}
		linked[dir] = map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			m := nmLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			// Strip type arguments and fold a generic's dictionary onto it.
			name := strings.Replace(stripBrackets(m[1]), "..dict.", ".", 1)
			if strings.HasPrefix(name, "main.") {
				linked[dir][name] = true
			} else {
				linked[""][name] = true
			}
		}
	}

	used := map[string]bool{}
	failed := false
	for _, d := range decls {
		if linked[d.bin][d.key] {
			continue
		}
		if entry := allowed(d.rel); entry != "" {
			used[entry] = true
			continue
		}
		fmt.Printf("%s:%d: %s is linked by no binary\n", d.pos.Filename, d.pos.Line, d.rel)
		failed = true
	}
	for _, entry := range sorted(allowlist) {
		if !used[entry] {
			fmt.Printf("allowlist entry %s covers no unlinked function\n", entry)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("linkaudit: all %d functions linked by a binary or allowlisted (%d entries)\n", len(decls), len(allowlist))
}

// allowed returns the allowlist entry covering rel, or "".
func allowed(rel string) string {
	if allowlist[rel] {
		return rel
	}
	pkg, _, _ := strings.Cut(rel, ".")
	if allowlist[pkg+"/"] {
		return pkg + "/"
	}
	return ""
}

// stripBrackets removes every bracketed group, nesting included, so that
// "p.(*Trie[go.shape.struct { a [4]int }]).Lookup" becomes "p.(*Trie).Lookup".
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations parses every non-test .go file outside bench/ and hidden or
// testdata directories, and returns its funcs and the main packages' dirs.
func declarations(module string) ([]decl, []string, error) {
	fset := token.NewFileSet()
	var decls []decl
	mains := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg, rel, bin := module+"/"+dir, dir, ""
		if dir == "." {
			pkg, rel = module, module
		}
		if f.Name.Name == "main" {
			mains[dir] = true
			pkg, bin = "main", dir
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = receiver(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{key: pkg + "." + name, rel: rel + "." + name,
				pos: fset.Position(fn.Pos()), bin: bin})
		}
		return nil
	})
	return decls, sorted(mains), err
}

// receiver renders a method's receiver type the way nm does, T or (*T),
// without type parameters.
func receiver(t ast.Expr) string {
	star, ok := t.(*ast.StarExpr)
	if ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if ok {
		return "(*" + t.(*ast.Ident).Name + ")"
	}
	return t.(*ast.Ident).Name
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linkaudit:", err)
	os.Exit(2)
}
