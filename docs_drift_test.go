package perspectron

// Doc-drift guard for the metric catalogue: every perspectron_* series
// registered by non-test code must have a row in docs/OBSERVABILITY.md's
// tables, and every row there must correspond to a series the code still
// registers. The code side extracts quoted `perspectron_...` string literals
// (both quote styles), which is exactly where series names live — prose
// mentions in comments don't count; the docs side extracts tokens from
// `|`-prefixed table rows only, so examples in shell snippets don't count
// either. Add the series to the catalogue when you add the instrument;
// delete the row when you delete it.
//
// The same guard covers bench artifacts: every BenchmarkX/arm named in a
// docs/PERFORMANCE.md table row or in a committed root BENCH_*.json
// baseline must still exist as a func BenchmarkX in some _test.go file of
// this module, with a Run("arm", ...) call in its body. Every baseline row
// must have run at least 5 iterations, and every BENCH_*.json that
// docs/*.md, README.md, the Makefile or CI names must exist in the tree.
//
// The CLI usage block in cmd/perspectron's package comment must list, for
// each subcommand, exactly the flags that subcommand registers; the shared
// telemetry flags are documented once, in docs/OBSERVABILITY.md.

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"perspectron/internal/telemetry/telemetrycli"
)

var (
	codeSeriesRe = regexp.MustCompile("[\"`](perspectron_[a-z0-9_]+)")
	docSeriesRe  = regexp.MustCompile(`perspectron_[a-z0-9_]+`)
)

func TestMetricCatalogueMatchesCode(t *testing.T) {
	code := map[string]string{} // series -> first file registering it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".corpus-cache", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range codeSeriesRe.FindAllStringSubmatch(string(b), -1) {
			if _, ok := code[m[1]]; !ok {
				code[m[1]] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(code) == 0 {
		t.Fatal("no perspectron_* series literals found in code — the scanner is broken")
	}

	docBytes, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]bool{}
	for _, line := range strings.Split(string(docBytes), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range docSeriesRe.FindAllString(line, -1) {
			doc[m] = true
		}
	}
	if len(doc) == 0 {
		t.Fatal("no perspectron_* series rows found in docs/OBSERVABILITY.md — the extractor is broken")
	}

	var missing []string
	for s, file := range code {
		if !doc[s] {
			missing = append(missing, s+" (registered in "+file+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("series %s has no row in the docs/OBSERVABILITY.md catalogue", m)
	}
	var stale []string
	for s := range doc {
		if _, ok := code[s]; !ok {
			stale = append(stale, s)
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("docs/OBSERVABILITY.md catalogues %s but no non-test code registers it", s)
	}
}

var (
	docBenchRe  = regexp.MustCompile(`Benchmark[A-Za-z0-9_]+(/[A-Za-z0-9_.=-]+)?`)
	benchFileRe = regexp.MustCompile(`\bBENCH_[A-Za-z0-9_]+\.json\b`)
)

// minBaselineIters is the fewest iterations a committed baseline row may
// report: a single run carries no spread and is noise.
const minBaselineIters = 5

// moduleBenchArms maps every Benchmark function declared in this module's
// _test.go files to the set of string-literal names its body passes to Run.
// Nested modules (directories with their own go.mod) are not part of this
// module and are skipped.
func moduleBenchArms(t *testing.T) map[string]map[string]bool {
	t.Helper()
	arms := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".corpus-cache", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			if path != "." {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			runs := arms[fn.Name.Name]
			if runs == nil {
				runs = map[string]bool{}
				arms[fn.Name.Name] = runs
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Run" {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if arm, err := strconv.Unquote(lit.Value); err == nil {
						runs[arm] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return arms
}

func TestBenchNamesMatchCode(t *testing.T) {
	arms := moduleBenchArms(t)
	if len(arms) == 0 {
		t.Fatal("no Benchmark functions found in _test.go files — the scanner is broken")
	}

	named := map[string][]string{} // BenchmarkX[/arm] -> where it is named
	docBytes, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(docBytes), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range docBenchRe.FindAllString(line, -1) {
			named[m] = append(named[m], "docs/PERFORMANCE.md")
		}
	}
	if len(named) == 0 {
		t.Fatal("no Benchmark rows found in docs/PERFORMANCE.md tables — the extractor is broken")
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed BENCH_*.json baseline found")
	}
	for _, file := range files {
		artBytes, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var art struct {
			Benchmarks []struct {
				Name       string `json:"name"`
				Iterations int64  `json:"iterations"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(artBytes, &art); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(art.Benchmarks) == 0 {
			t.Fatalf("%s lists no benchmarks", file)
		}
		for _, b := range art.Benchmarks {
			named[b.Name] = append(named[b.Name], file)
			if b.Iterations < minBaselineIters {
				t.Errorf("%s: %s ran %d iterations, a committed baseline needs >= %d",
					file, b.Name, b.Iterations, minBaselineIters)
			}
		}
	}

	// Every baseline the docs, the Makefile or CI cite must be in the tree.
	citers, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append(citers, "README.md", "Makefile", ".github/workflows/ci.yml") {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, cited := range benchFileRe.FindAllString(string(text), -1) {
			if _, err := os.Stat(cited); err != nil {
				t.Errorf("%s cites %s, which is not in the tree", file, cited)
			}
		}
	}

	var names []string
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		where := strings.Join(named[n], " and ")
		fn, arm, hasArm := strings.Cut(n, "/")
		runs, ok := arms[fn]
		switch {
		case !ok:
			t.Errorf("%s names %s, but no _test.go file declares func %s", where, n, fn)
		case hasArm && !runs[arm]:
			t.Errorf("%s names %s, but %s has no Run(%q, ...) call", where, n, fn, arm)
		}
	}
}

// usageFlagRe picks flag names out of a usage line: a "-name" that follows
// a space, "[" or "|".
var usageFlagRe = regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`)

func TestCLIUsageMatchesFlags(t *testing.T) {
	const src = "cmd/perspectron/main.go"
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	shared := flag.NewFlagSet("", flag.ContinueOnError)
	telemetrycli.Register(shared)

	// Code side: every fs := flag.NewFlagSet("sub", ...) and the names of
	// the flags defined on fs in the same function.
	code := map[string]map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		sets := map[string]string{} // flag-set variable -> subcommand
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				id, ok := n.Lhs[0].(*ast.Ident)
				call, isCall := n.Rhs[0].(*ast.CallExpr)
				if !ok || !isCall || len(call.Args) == 0 || !isSelector(call.Fun, "flag", "NewFlagSet") {
					return true
				}
				if name, lit := stringLit(call.Args[0]); lit {
					sets[id.Name] = name
					code[name] = map[string]bool{}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || sets[x.Name] == "" {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1 // fs.StringVar(&v, "name", ...)
				}
				if arg < len(n.Args) {
					if name, lit := stringLit(n.Args[arg]); lit {
						code[sets[x.Name]][name] = true
					}
				}
			}
			return true
		})
	}
	if len(code) == 0 {
		t.Fatal("no flag.NewFlagSet calls found — the scanner is broken")
	}

	// Doc side: the tab-indented usage block, one "perspectron <sub>" line
	// per subcommand plus its continuation lines.
	usage := map[string]map[string]bool{}
	sub := ""
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if !strings.HasPrefix(line, "\t") {
			sub = ""
			continue
		}
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "perspectron" {
			sub = fields[1]
			usage[sub] = map[string]bool{}
			line = strings.Join(fields[2:], " ")
		}
		if sub == "" {
			continue
		}
		for _, m := range usageFlagRe.FindAllStringSubmatch(line, -1) {
			if shared.Lookup(m[1]) == nil {
				usage[sub][m[1]] = true
			}
		}
	}
	if len(usage) == 0 {
		t.Fatalf("no usage block found in %s's package comment", src)
	}

	var subs []string
	for s := range code {
		subs = append(subs, s)
	}
	for s := range usage {
		if _, ok := code[s]; !ok {
			subs = append(subs, s)
		}
	}
	sort.Strings(subs)
	for _, s := range subs {
		if _, ok := usage[s]; !ok {
			t.Errorf("%s: subcommand %s registers flags but has no usage line", src, s)
			continue
		}
		for fl := range code[s] {
			if !usage[s][fl] {
				t.Errorf("%s: %s registers -%s but its usage line omits it", src, s, fl)
			}
		}
		for fl := range usage[s] {
			if !code[s][fl] {
				t.Errorf("%s: %s usage lists -%s but the subcommand does not register it", src, s, fl)
			}
		}
	}
}

// isSelector reports whether e is the selector pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
