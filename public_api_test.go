// Public-surface locks: TestPublicAPI pins every exported name of the
// asyncnoc facade (with its type, and the exported methods and fields of
// the named types it exports) against testdata/api.txt, and
// TestPublicAPIUsed requires each of those names to have a caller outside
// the facade's own tests, and TestReadmeNamesInAPI requires each
// asyncnoc.X that README.md names to be one of them. Adding or removing a
// name is then a deliberate diff to the listing, and a name nothing calls
// fails until it is deleted.
package asyncnoc_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

const apiListing = "testdata/api.txt"

// apiAllowlist names facade entries kept without a caller, each with the
// reason it stays.
var apiAllowlist = map[string]string{
	"WithFourPhase":    "the paper's Section 2 protocol ablation; timing.FourPhase cannot be reached from outside the module",
	"DefaultRunConfig": "the Section 5.1 windows that README's examples use",
}

// TestPublicAPI type-checks the facade from source and compares its
// exported surface with testdata/api.txt. Each package-scope name is
// listed as "kind Name type"; each named type it exports adds one
// indented line per exported field, method (of the pointer method set)
// and, for a type that is neither a struct nor an interface, its
// underlying type.
func TestPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the facade and its imports from source")
	}
	got := publicAPI(t)
	want, err := os.ReadFile(apiListing)
	if err != nil {
		t.Fatalf("%v\ncurrent listing:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("the public surface of asyncnoc differs from %s; explain the change in CHANGES.md and replace the file with the current listing:\n%s", apiListing, got)
	}
}

func publicAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["asyncnoc"].Files {
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("asyncnoc", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	typ := func(x types.Type) string { return types.TypeString(x, qual) }

	var b strings.Builder
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			fmt.Fprintf(&b, "const %s %s\n", name, typ(obj.Type()))
		case *types.Var:
			fmt.Fprintf(&b, "var %s %s\n", name, typ(obj.Type()))
		case *types.Func:
			fmt.Fprintf(&b, "func %s %s\n", name, typ(obj.Type()))
		case *types.TypeName:
			if obj.IsAlias() {
				fmt.Fprintf(&b, "type %s = %s\n", name, typ(obj.Type()))
			} else {
				fmt.Fprintf(&b, "type %s %s\n", name, typ(obj.Type().Underlying()))
			}
			named, ok := types.Unalias(obj.Type()).(*types.Named)
			if !ok {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						fmt.Fprintf(&b, "\tfield %s.%s %s\n", name, f.Name(), typ(f.Type()))
					}
				}
			case *types.Interface:
			default:
				fmt.Fprintf(&b, "\tunderlying %s %s\n", name, typ(u))
			}
			var ms *types.MethodSet
			if types.IsInterface(named) {
				ms = types.NewMethodSet(named)
			} else {
				ms = types.NewMethodSet(types.NewPointer(named))
			}
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					fmt.Fprintf(&b, "\tmethod %s.%s %s\n", name, m.Name(), typ(m.Type()))
				}
			}
		}
	}
	return b.String()
}

// TestPublicAPIUsed requires every exported func and var of the facade to
// be referenced as asyncnoc.X by a non-test file under cmd/, examples/,
// nocbench/ or internal/ (or to be on apiAllowlist). A type stays when it
// is referenced there, when it is an error type (callers match those with
// errors.As), or when a kept func or var, or a field, method or
// underlying type of a kept type, names it. Reaching a type keeps none of
// its unreferenced aliases when callers name another one. A constant
// stays when it is referenced or its type is reached. Names, kinds and
// types come from testdata/api.txt, which TestPublicAPI keeps equal to
// the facade.
func TestPublicAPIUsed(t *testing.T) {
	api := readAPI(t)
	used := facadeRefs(t, "cmd", "examples", "nocbench", "internal")
	aliases := map[string][]string{} // alias target ("core.Engine") -> facade names
	for name, e := range api {
		if e.kind == "type" && qualifiedIdent.MatchString(e.typ) {
			aliases[e.typ] = append(aliases[e.typ], name)
		}
	}

	keptType := map[string]bool{}
	reached := map[string]bool{} // every type a kept entry names, as listed
	var queue []string
	keep := func(name string) {
		if !keptType[name] {
			keptType[name] = true
			queue = append(queue, name)
		}
	}
	reach := func(typ string) {
		for _, id := range typeIdents.FindAllString(typ, -1) {
			names := aliases[id]
			if !strings.Contains(id, ".") {
				if api[id] == nil || api[id].kind != "type" {
					continue // a predeclared type, or a parameter name
				}
				names = []string{id}
			}
			reached[id] = true
			for _, n := range names {
				if len(names) > 1 && !used[n] && slices.ContainsFunc(names, func(m string) bool { return used[m] }) {
					continue // a second name for a type callers already name
				}
				keep(n)
			}
		}
	}
	var unused []string
	for name, e := range api {
		switch {
		case e.kind == "type" && (used[name] || e.isError):
			keep(name)
		case e.kind != "func" && e.kind != "var":
		case used[name] || apiAllowlist[name] != "":
			reach(e.typ)
		default:
			unused = append(unused, e.kind+" "+name)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		// A kept type's own listed type (its alias target) is reached,
		// but it does not keep the other aliases of that target.
		reached[name] = true
		reached[api[name].typ] = true
		for _, m := range api[name].members {
			reach(m)
		}
	}
	for name, e := range api {
		switch {
		case e.kind == "type" && !keptType[name]:
			unused = append(unused, "type "+name)
		case e.kind == "const" && !used[name] && !slices.ContainsFunc(typeIdents.FindAllString(e.typ, -1), func(id string) bool { return reached[id] }):
			unused = append(unused, "const "+name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("asyncnoc names no command, example, nocbench or internal package uses (delete them, or add them to apiAllowlist with a reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
}

// TestReadmeNamesInAPI requires every asyncnoc.X that README.md names to
// be a package-scope name of testdata/api.txt, so the README's API
// examples cannot drift from the facade.
func TestReadmeNamesInAPI(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	api := readAPI(t)
	var missing []string
	for _, m := range readmeRef.FindAllStringSubmatch(string(readme), -1) {
		if api[m[1]] == nil && !slices.Contains(missing, m[1]) {
			missing = append(missing, m[1])
		}
	}
	if len(missing) > 0 {
		t.Errorf("README.md names asyncnoc identifiers that %s does not list: %s", apiListing, strings.Join(missing, ", "))
	}
}

// readmeRef matches an exported facade selector asyncnoc.X in prose or
// code (not a file name such as asyncnoc.go).
var readmeRef = regexp.MustCompile(`\basyncnoc\.([A-Z][A-Za-z0-9_]*)`)

// typeIdents matches the (possibly package-qualified) identifiers of a
// type as TestPublicAPI prints it; qualifiedIdent matches a type that is
// one package-qualified name.
var (
	typeIdents     = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?`)
	qualifiedIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*$`)
)

// facadeRefs collects every asyncnoc.X selector in the non-test Go files
// under dirs.
func facadeRefs(t *testing.T, dirs ...string) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"asyncnoc"` {
					local = "asyncnoc"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return used
}

// apiEntry is one package-scope name of testdata/api.txt: its kind, its
// printed type (an alias's target), the types its member lines name, and
// whether it has an Error() string method.
type apiEntry struct {
	kind, typ string
	members   []string
	isError   bool
}

func readAPI(t *testing.T) map[string]*apiEntry {
	t.Helper()
	data, err := os.ReadFile(apiListing)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*apiEntry{}
	var cur *apiEntry
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		member := strings.HasPrefix(line, "\t")
		kind, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		name, typ, _ := strings.Cut(rest, " ")
		if !member {
			cur = &apiEntry{kind: kind, typ: strings.TrimPrefix(typ, "= ")}
			out[name] = cur
			continue
		}
		if cur == nil {
			t.Fatalf("%s: member line before any name: %q", apiListing, line)
		}
		cur.members = append(cur.members, typ)
		if kind == "method" && strings.HasSuffix(name, ".Error") && typ == "func() string" {
			cur.isError = true
		}
	}
	return out
}
