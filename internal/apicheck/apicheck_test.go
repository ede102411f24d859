// Package apicheck holds the API ratchet: a type-checked scan of the root
// module and the benchmark/ module whose result must equal
// testdata/ratchet.txt exactly.
//
// It finds two things:
//
//  1. exported declarations with no use outside tests. Uses are resolved
//     by go/types, so MonitorPool.Observe and Monitor.Observe are told
//     apart. The benchmark/ module, examples/ and the README's go blocks
//     count as callers; a name of the omg.go facade needs a caller
//     outside omg.go. A method that satisfies an interface declared or
//     used by non-test code counts as used.
//  2. per-package counts of calls that bypass a seam: direct file
//     mutation outside internal/store/log.go and segment.go, clock reads
//     and timers in store, export and labelsvc, the log package, and
//     recover().
//
// A new entry fails, and so does a vanished one, so the file only
// tightens. Every kept exported name carries a reason.
//
// The scan reads the sources named by `go list`; set the overlay in
// GOFLAGS (GOFLAGS=-overlay=FILE go test ./internal/apicheck) and both the
// file list and the file contents follow it.
package apicheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "omg"

// listedPkg is the part of `go list -json` the scan reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// loader type-checks the module's packages from source, in one type
// universe, and imports the standard library from compiler export data.
type loader struct {
	fset    *token.FileSet
	overlay map[string]string // file path -> replacement path
	listed  map[string]*listedPkg
	std     types.Importer
	pkgs    map[string]*checked
	order   []*checked
}

type checked struct {
	path  string
	name  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newLoader(t *testing.T) *loader {
	l := &loader{
		fset:    token.NewFileSet(),
		overlay: readOverlay(t),
		listed:  map[string]*listedPkg{},
		pkgs:    map[string]*checked{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := l.listed[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})
	return l
}

// readOverlay returns the -overlay file's Replace map named in GOFLAGS,
// so a mutant served through the overlay is what the scan reads.
func readOverlay(t *testing.T) map[string]string {
	for _, f := range strings.Fields(os.Getenv("GOFLAGS")) {
		name, ok := strings.CutPrefix(f, "-overlay=")
		if !ok {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read overlay: %v", err)
		}
		var o struct{ Replace map[string]string }
		if err := json.Unmarshal(data, &o); err != nil {
			t.Fatalf("parse overlay %s: %v", name, err)
		}
		return o.Replace
	}
	return nil
}

func (l *loader) readFile(path string) ([]byte, error) {
	if r, ok := l.overlay[path]; ok {
		return os.ReadFile(r)
	}
	return os.ReadFile(path)
}

// list runs `go list -export -deps` in dir and returns the import paths
// of the module packages it matched, in dependency order.
func (l *loader) list(t *testing.T, dir string) []string {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var own []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		if _, seen := l.listed[p.ImportPath]; !seen {
			l.listed[p.ImportPath] = p
		}
		if !p.Standard && inModule(p.ImportPath) {
			own = append(own, p.ImportPath)
		}
	}
	return own
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// Import serves the module's packages type-checked from source and the
// standard library from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		return l.std.Import(path)
	}
	c, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

func (l *loader) check(path string) (*checked, error) {
	if c, ok := l.pkgs[path]; ok {
		return c, nil
	}
	p := l.listed[path]
	if p == nil {
		return nil, fmt.Errorf("package %q not listed", path)
	}
	c := &checked{path: path, name: p.Name}
	for _, f := range p.GoFiles {
		name := filepath.Join(p.Dir, f)
		src, err := l.readFile(name)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, file)
	}
	c.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, c.files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.pkg = pkg
	l.pkgs[path] = c
	l.order = append(l.order, c)
	return c, nil
}

// decl is one exported declaration and the source span its own
// references live in (its declaration, and for a type its methods'
// receivers), which do not count as uses.
type decl struct {
	key    string
	facade bool
	spans  [][2]token.Pos
}

// scan is the whole result the ratchet file is compared against.
type scan struct {
	unused map[string]bool // keys of exported declarations with no use
	counts map[string]int  // "kind pkg" -> count; zero counts are absent
}

func runScan(t *testing.T, root string) scan {
	l := newLoader(t)
	var targets []string
	targets = append(targets, l.list(t, root)...)
	targets = append(targets, l.list(t, filepath.Join(root, "benchmark"))...)
	for _, path := range targets {
		if _, err := l.check(path); err != nil {
			t.Fatal(err)
		}
	}

	decls := map[types.Object]*decl{}
	var methods []*types.Func
	for _, c := range l.order {
		if c.name == "main" {
			continue
		}
		collectDecls(c, decls, &methods)
	}

	used := map[types.Object]bool{}
	ifaces := interfaces(l)
	for _, m := range methods {
		if satisfiesInterface(m, ifaces) {
			used[m] = true
		}
	}
	markUses := func(info *types.Info, fromFacade bool) {
		for id, obj := range info.Uses {
			obj = origin(obj)
			d := decls[obj]
			if d == nil || (d.facade && fromFacade) {
				continue
			}
			if !inSpans(id.Pos(), d.spans) {
				used[obj] = true
			}
		}
	}
	readme := readmeUses(t, l, filepath.Join(root, "README.md"))
	facadeTypes := facadeAliases(l, decls)
	markType := func(t types.Type) {
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
		if alias := facadeTypes[namedObj(t)]; alias != nil {
			used[alias] = true
		}
	}
	markValues := func(info *types.Info) {
		for _, tv := range info.Types {
			markType(tv.Type)
		}
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				params := f.Signature().Params()
				for i := 0; i < params.Len(); i++ {
					markType(params.At(i).Type())
				}
			}
		}
	}
	for _, c := range l.order {
		markUses(c.info, c.path == modulePath)
		if strings.HasPrefix(c.path, modulePath+"/examples/") {
			markValues(c.info)
		}
	}
	markUses(readme, false)
	markValues(readme)

	s := scan{unused: map[string]bool{}, counts: seamCounts(l)}
	for obj, d := range decls {
		if !used[obj] {
			s.unused[d.key] = true
		}
	}
	return s
}

// facadeAliases maps the type each omg.go type alias names to the alias:
// a facade type counts as used where an example or the README holds a
// value of it, as `mon := omg.NewMonitor(...)` holds a *Monitor, or calls
// a function that takes one.
func facadeAliases(l *loader, decls map[types.Object]*decl) map[*types.TypeName]types.Object {
	out := map[*types.TypeName]types.Object{}
	scope := l.pkgs[modulePath].pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && tn.IsAlias() && decls[tn] != nil {
			if obj := namedObj(tn.Type()); obj != nil {
				out[obj] = tn
			}
		}
	}
	return out
}

// namedObj returns the declaration of t's named type, through one pointer
// and any alias, or nil.
func namedObj(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func inSpans(pos token.Pos, spans [][2]token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

// collectDecls records the package's exported top-level names and the
// exported methods of its named types.
func collectDecls(c *checked, decls map[types.Object]*decl, methods *[]*types.Func) {
	facade := c.path == modulePath
	add := func(obj types.Object, key string, lo, hi token.Pos) {
		decls[obj] = &decl{key: key, facade: facade, spans: [][2]token.Pos{{lo, hi}}}
	}
	for _, f := range c.files {
		for _, node := range f.Decls {
			switch n := node.(type) {
			case *ast.FuncDecl:
				obj, ok := c.info.Defs[n.Name].(*types.Func)
				if !ok || !n.Name.IsExported() {
					continue
				}
				key := c.path + "." + n.Name.Name
				if n.Recv != nil {
					named := recvNamed(obj)
					if named == nil {
						continue
					}
					key = c.path + "." + named.Obj().Name() + "." + n.Name.Name
					*methods = append(*methods, obj)
				}
				add(obj, key, n.Pos(), n.End())
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							add(c.info.Defs[sp.Name], c.path+"."+sp.Name.Name, sp.Pos(), sp.End())
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								add(c.info.Defs[id], c.path+"."+id.Name, sp.Pos(), sp.End())
							}
						}
					}
				}
			}
		}
	}
	// A type's own receivers are not uses of it.
	for _, f := range c.files {
		for _, node := range f.Decls {
			fd, ok := node.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			obj, ok := c.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if named := recvNamed(obj); named != nil {
				if d := decls[named.Obj()]; d != nil {
					d.spans = append(d.spans, [2]token.Pos{fd.Recv.Pos(), fd.Recv.End()})
				}
			}
		}
	}
}

func recvNamed(f *types.Func) *types.Named {
	recv := f.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaces returns every non-empty interface the non-test code can see:
// the named ones in every loaded package's scope (the module's and the
// standard library's it imports) and the literal ones the module's code
// spells out.
func interfaces(l *loader) []*types.Interface {
	var out []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, c := range l.order {
		walk(c.pkg)
		for _, tv := range c.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(m)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// readmeUses type-checks the README's go blocks, in order, as the body of
// one function importing the facade. The blocks are fragments, so type
// errors are expected and ignored; what resolves is a use. `...` stands
// for elided code and is dropped before parsing.
func readmeUses(t *testing.T, l *loader, path string) *types.Info {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	src.WriteString("package readme\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\t\"omg\"\n)\n\nfunc _() {\n")
	for _, m := range goBlock.FindAllSubmatch(data, -1) {
		block := elidedBody.ReplaceAllString(string(m[1]), "{}")
		src.WriteString(elidedLine.ReplaceAllString(block, ""))
	}
	src.WriteString("}\n")
	file, err := parser.ParseFile(l.fset, path, src.String(), parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("README go blocks do not parse as one function body: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	conf.Check("readme", l.fset, []*ast.File{file}, info)
	return info
}

var (
	goBlock    = regexp.MustCompile("(?ms)^```go\n(.*?)^```")
	elidedBody = regexp.MustCompile(`\{ \.\.\. \}`)
	elidedLine = regexp.MustCompile(`(?m)^\s*\.\.\.\s*$`)
)

// seamKind classifies one use in non-test code as a seam-breaking call,
// or returns "".
func seamKind(pkgPath, file string, obj types.Object) string {
	if b, ok := obj.(*types.Builtin); ok && b.Name() == "recover" {
		return "recover"
	}
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "log":
		return "log"
	case "time":
		switch pkgPath {
		case "omg/internal/store", "omg/internal/export", "omg/internal/labelsvc":
			if clockNames[obj.Name()] && !isMethod(obj) {
				return "clock"
			}
		}
	case "os":
		if strings.HasSuffix(file, filepath.Join("internal", "store", "log.go")) ||
			strings.HasSuffix(file, filepath.Join("internal", "store", "segment.go")) {
			return ""
		}
		if isMethod(obj) {
			if fileMutators[obj.Name()] && recvNamed(obj.(*types.Func)).Obj().Name() == "File" {
				return "fsmutate"
			}
		} else if fsMutators[obj.Name()] {
			return "fsmutate"
		}
	}
	return ""
}

var (
	clockNames = set("Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker")
	fsMutators = set("Create", "CreateTemp", "OpenFile", "WriteFile", "Remove", "RemoveAll",
		"Rename", "Mkdir", "MkdirAll", "MkdirTemp", "Truncate", "Chmod", "Chtimes", "Link", "Symlink")
	fileMutators = set("Write", "WriteAt", "WriteString", "ReadFrom", "Truncate", "Sync", "Chmod")
)

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Signature().Recv() != nil
}

// seamCounts counts seam-breaking uses per root-module package.
func seamCounts(l *loader) map[string]int {
	counts := map[string]int{}
	for _, c := range l.order {
		if strings.HasPrefix(c.path, modulePath+"/benchmark") {
			continue
		}
		for id, obj := range c.info.Uses {
			file := l.fset.Position(id.Pos()).Filename
			if kind := seamKind(c.path, file, obj); kind != "" {
				counts[kind+" "+c.path]++
			}
		}
	}
	return counts
}

// ratchet is testdata/ratchet.txt: "unused KEY -- REASON" and
// "count KIND PKG N" lines; '#' starts a comment line.
type ratchet struct {
	unused map[string]string
	counts map[string]int
}

func readRatchet(t *testing.T, path string) ratchet {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := ratchet{unused: map[string]string{}, counts: map[string]int{}}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case f[0] == "unused" && len(f) >= 2:
			_, reason, _ := strings.Cut(line, " -- ")
			if strings.TrimSpace(reason) == "" {
				t.Errorf("%s:%d: %s has no reason (\"unused KEY -- REASON\")", path, i+1, f[1])
			}
			r.unused[f[1]] = reason
		case f[0] == "count" && len(f) == 4:
			n, err := strconv.Atoi(f[3])
			if err != nil || n <= 0 {
				t.Errorf("%s:%d: bad count %q", path, i+1, f[3])
			}
			r.counts[f[1]+" "+f[2]] = n
		default:
			t.Errorf("%s:%d: cannot parse %q", path, i+1, line)
		}
	}
	return r
}

func TestRatchet(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable; cannot list the module")
	}
	got := runScan(t, filepath.Join("..", ".."))
	want := readRatchet(t, filepath.Join("testdata", "ratchet.txt"))

	for _, k := range slices.Sorted(maps.Keys(got.unused)) {
		if _, ok := want.unused[k]; !ok {
			t.Errorf("new exported name with no non-test use: %s\n"+
				"\tdelete it, unexport it, or give it a caller; keep it only with a line\n"+
				"\tunused %s -- REASON", k, k)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(want.unused)) {
		if !got.unused[k] {
			t.Errorf("ratchet entry gone: %s now has a non-test use or no longer exists; delete its line", k)
		}
	}
	keys := maps.Clone(got.counts)
	maps.Copy(keys, want.counts)
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		g, w := got.counts[k], want.counts[k]
		switch {
		case g > w:
			t.Errorf("count %s: %d seam-breaking uses, ratchet allows %d; route the new ones through the seam", k, g, w)
		case g < w:
			t.Errorf("count %s: %d seam-breaking uses, ratchet says %d; lower it (or drop the line at 0) to lock the gain in", k, g, w)
		}
	}
}
