// Command sherlock-vet enforces the repo's determinism invariants at the
// source level, using only the standard library's go/ast, go/parser and
// go/types (go.mod stays dependency-free). The compiler and simulators
// promise bit-identical output for identical inputs; that promise dies the
// moment nondeterministic iteration or wall-clock state leaks into an
// emitted program or a published table. The checks:
//
//	rangemap   — `range` over a map value. Map iteration order is
//	             randomized per run, so any map range that feeds emitted
//	             instructions or published rows is a reproducibility bug.
//	walltime   — time.Now / time.Since in deterministic packages.
//	globalrand — math/rand package-level functions (rand.Intn, rand.Perm,
//	             ...), which draw from the shared, unseeded global source.
//	             Constructing seeded generators (rand.New, rand.NewSource,
//	             rand.NewZipf) and the rand.Rand/rand.Source types stay
//	             legal.
//	sprintfkey — indexing a map with fmt.Sprintf(...): formatted-string
//	             keys invite collisions and hide the real key structure;
//	             use a comparable struct key.
//	staleallow — a `//sherlock:allow` directive that suppressed nothing.
//	             Stale escape hatches outlive refactors and then silently
//	             waive the next real finding on that line; delete them.
//
// A finding is suppressed by `//sherlock:allow <check>` on the same line or
// the line directly above — the escape hatch for ranges that re-sort before
// publishing and similar audited cases. Every directive must earn its keep:
// one that matches no finding is itself reported (staleallow) and cannot be
// suppressed.
//
// Usage:
//
//	sherlock-vet [-root DIR] [packages...]
//
// Packages default to the deterministic core: the root facade (which now
// carries the streaming execution layer), the compiler's front half that
// decides every emitted program (internal/cparser, internal/dfg,
// internal/logic, internal/layout, internal/reliability), internal/mapping,
// internal/sim, internal/experiments, internal/isa, internal/readyq,
// plus the serving layer (internal/serve, internal/memo, internal/pool),
// the analytics workload builders (internal/workloads/analytics),
// whose coalesced outputs must be bit-identical however batches compose,
// and the equivalence-proof stack (internal/aig, internal/verify,
// internal/coopt), where nondeterminism would make proofs and
// counterexamples irreproducible. Directories are scanned
// non-recursively and _test.go files are skipped. Exit status: 0 clean,
// 1 findings, 2 parse/usage failure.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var defaultDirs = []string{
	".",
	"internal/cparser",
	"internal/dfg",
	"internal/logic",
	"internal/layout",
	"internal/reliability",
	"internal/mapping",
	"internal/sim",
	"internal/experiments",
	"internal/isa",
	"internal/readyq",
	"internal/serve",
	"internal/memo",
	"internal/pool",
	"internal/aig",
	"internal/coopt",
	"internal/verify",
	"internal/workloads/analytics",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type finding struct {
	pos   token.Position
	check string
	msg   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sherlock-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "module root the package directories are relative to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}

	ld := newLoader(*root)
	var all []finding
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "sherlock-vet: %v\n", err)
			return 2
		}
		all = append(all, pkg.vet()...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, f := range all {
		fmt.Fprintf(stdout, "%s: %s: %s\n", f.pos, f.check, f.msg)
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// loader parses and type-checks package directories on demand. It doubles
// as the types.Importer: sherlock/... imports are resolved recursively from
// source under root, everything else (the standard library) is stubbed out
// with an empty package — the resulting type errors are swallowed, which is
// fine because every check below degrades safely when a type is unknown.
type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*checkedPkg // by directory relative to root
	deep int                    // import recursion guard
}

type checkedPkg struct {
	files []*ast.File
	info  *types.Info
	tpkg  *types.Package
	fset  *token.FileSet
	// allowed maps file -> line -> set of checks suppressed on that line.
	allowed map[string]map[int]map[string]bool
	// used records which collected directives actually suppressed a
	// finding during vet(); the rest are reported as staleallow.
	used map[allowKey]bool
}

// allowKey identifies one check name within one //sherlock:allow directive.
// A comparable struct key, not a formatted string — exactly what the
// sprintfkey check asks of everyone else.
type allowKey struct {
	file  string
	line  int
	check string
}

func newLoader(root string) *loader {
	return &loader{root: root, fset: token.NewFileSet(), pkgs: map[string]*checkedPkg{}}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, "sherlock/"); ok {
		if l.deep > 40 {
			return nil, fmt.Errorf("import cycle or excessive depth at %q", path)
		}
		l.deep++
		defer func() { l.deep-- }()
		pkg, err := l.loadDir(rel)
		if err != nil {
			return nil, err
		}
		return pkg.tpkg, nil
	}
	// Standard library: a complete, empty stub. Uses of its members become
	// type errors, which the checker is configured to ignore.
	stub := types.NewPackage(path, filepath.Base(path))
	stub.MarkComplete()
	return stub, nil
}

func (l *loader) loadDir(dir string) (*checkedPkg, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := l.pkgs[dir]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return pkg, nil
	}
	l.pkgs[dir] = nil // cycle marker

	abs := filepath.Join(l.root, dir)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	pkg := &checkedPkg{fset: l.fset, allowed: map[string]map[int]map[string]bool{}, used: map[allowKey]bool{}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(abs, name)
		file, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, file)
		pkg.collectAllows(file)
	}
	if len(pkg.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", abs)
	}

	pkg.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // stubbed stdlib makes type errors expected
	}
	pkg.tpkg, _ = conf.Check("sherlock/"+filepath.ToSlash(dir), l.fset, pkg.files, pkg.info)
	l.pkgs[dir] = pkg
	return pkg, nil
}

// collectAllows records every `//sherlock:allow check1,check2` directive by
// file and line.
func (p *checkedPkg) collectAllows(file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			rest, ok := strings.CutPrefix(strings.TrimSpace(text), "sherlock:allow")
			// The check list is the first word; anything after it is
			// commentary, commas included:
			// `//sherlock:allow rangemap,walltime (sorted below, once)`.
			fields := strings.Fields(rest)
			if !ok || len(fields) == 0 {
				continue
			}
			pos := p.fset.Position(c.Pos())
			lines := p.allowed[pos.Filename]
			if lines == nil {
				lines = map[int]map[string]bool{}
				p.allowed[pos.Filename] = lines
			}
			set := lines[pos.Line]
			if set == nil {
				set = map[string]bool{}
				lines[pos.Line] = set
			}
			for _, check := range strings.Split(fields[0], ",") {
				if check != "" {
					set[check] = true
				}
			}
		}
	}
}

func (p *checkedPkg) isAllowed(pos token.Position, check string) bool {
	lines := p.allowed[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if lines[line][check] {
			p.used[allowKey{pos.Filename, line, check}] = true
			return true
		}
	}
	return false
}

func (p *checkedPkg) vet() []finding {
	var out []finding
	report := func(pos token.Pos, check, format string, args ...any) {
		position := p.fset.Position(pos)
		if p.isAllowed(position, check) {
			return
		}
		out = append(out, finding{pos: position, check: check, msg: fmt.Sprintf(format, args...)})
	}
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				p.checkRangeMap(n, report)
			case *ast.SelectorExpr:
				p.checkPkgCall(n, report)
			case *ast.IndexExpr:
				p.checkSprintfKey(n, report)
			}
			return true
		})
	}
	// Stale-allow sweep: a directive that suppressed nothing is itself a
	// finding — an unearned waiver that will silently swallow the next real
	// finding on its line. Appended unconditionally (no isAllowed): the
	// escape hatch cannot excuse itself. The caller sorts findings, so
	// ranging over the directive maps here is order-insensitive.
	for file, lines := range p.allowed { //sherlock:allow rangemap (findings re-sorted by caller)
		for line, set := range lines { //sherlock:allow rangemap
			for check := range set { //sherlock:allow rangemap
				if p.used[allowKey{file, line, check}] {
					continue
				}
				out = append(out, finding{
					pos:   token.Position{Filename: file, Line: line, Column: 1},
					check: "staleallow",
					msg:   fmt.Sprintf("//sherlock:allow %s suppresses no finding; delete the stale directive", check),
				})
			}
		}
	}
	return out
}

// checkRangeMap flags `range` over map values: iteration order is
// randomized per run, so anything it feeds — emitted instructions,
// published tables, slice appends later iterated in order — silently loses
// determinism.
func (p *checkedPkg) checkRangeMap(rs *ast.RangeStmt, report func(token.Pos, string, string, ...any)) {
	tv, ok := p.info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	report(rs.Pos(), "rangemap",
		"range over map %s: iteration order is nondeterministic; sort keys first or use //sherlock:allow rangemap if provably order-insensitive",
		types.TypeString(tv.Type, func(*types.Package) string { return "" }))
}

// pkgOf resolves a selector's receiver to the import path of a package
// name, or "" when it is an ordinary value.
func (p *checkedPkg) pkgOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// globalRandAllowed lists the math/rand members that do NOT touch the
// shared global source: constructors for seeded generators and the types
// themselves.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true,
}

func (p *checkedPkg) checkPkgCall(sel *ast.SelectorExpr, report func(token.Pos, string, string, ...any)) {
	switch p.pkgOf(sel.X) {
	case "time":
		if name := sel.Sel.Name; name == "Now" || name == "Since" {
			report(sel.Pos(), "walltime",
				"time.%s reads the wall clock: deterministic packages must take timestamps as inputs, not sample them", name)
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[sel.Sel.Name] {
			report(sel.Pos(), "globalrand",
				"rand.%s draws from the shared global source: use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", sel.Sel.Name)
		}
	}
}

// checkSprintfKey flags m[fmt.Sprintf(...)]: bucketing by a formatted
// string invites key collisions ("1,23" vs "12,3") and hides the key's
// structure from the type system; a comparable struct key does both better.
func (p *checkedPkg) checkSprintfKey(ix *ast.IndexExpr, report func(token.Pos, string, string, ...any)) {
	call, ok := ix.Index.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" || p.pkgOf(sel.X) != "fmt" {
		return
	}
	// Only flag when the indexed expression is (or could be) a map; indexing
	// a slice with a Sprintf result would not type-check anyway.
	report(ix.Pos(), "sprintfkey",
		"map keyed by fmt.Sprintf: formatted-string buckets collide silently; key by a comparable struct instead")
}
