package analysis

// TestReach is the "least code" gate: it walks the whole program — every
// main package of this module plus everything the benchmark module
// references — and fails on any package-level func, method or type under
// internal/ that no program reaches and that is not on reachKeep. The
// per-package vet driver cannot see this; it needs every package at once.
//
// Reachability is by name, over the type-checked syntax:
//   - roots are main of every main package, every init function, every
//     package-level var initializer, and every object the benchmark
//     module references;
//   - a reached declaration reaches every package-level object its
//     syntax uses;
//   - a method of a reached type is also reached when its name is a
//     method of any interface type the loaded packages' code mentions
//     (declared there or imported), or one of reachStdlibMethods.

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachKeep lists the unreached declarations that stay, each with the
// reason. Keys are "<pkg>.<Name>" or "<pkg>.<Type>.<Method>" relative to
// repro/internal; "<pkg>.*" keeps a whole package. An entry that is
// reached, or names nothing, fails the test: the list only shrinks.
var reachKeep = map[string]string{
	"dist.Router.Stats":           "read by dist tests; the router's counters for the fleet's /stats",
	"dist.RouterStats":            "result type of dist.Router.Stats",
	"dist.breaker.condemned":      "read by breaker tests; the breaker state a router health report will expose",
	"faultnet.*":                  "fault-injecting TCP proxy used by dist tests",
	"hdc.NewRandomBinary":         "test fixture for packages that consume binary hypervectors",
	"hdc.Bipolar.Hamming":         "test fixture: bipolar reference distance for the packed kernels",
	"hdc.Bipolar.Permute":         "ρ, the permutation operation of the HDC algebra; pinned by the hdc property tests",
	"hdc.Bipolar.PermuteInto":     "allocation-free ρ on bipolar vectors (see hdc.Bipolar.Permute)",
	"hdc.Binary.Permute":          "ρ on packed binary vectors (see hdc.Bipolar.Permute)",
	"hdc.Binary.PermuteInto":      "word-level ρ kernel on packed binary vectors (see hdc.Bipolar.Permute)",
	"imc.Ideal":                   "test fixture: the noise-free crossbar configuration",
	"imc.SimilarityKernel.Logits": "test fixture: crossbar logits for the infer parity tests and root benchmarks",
	"imc.SimilarityKernel.Rows":   "test fixture: tile size checked by the imc row-range tests",
	"tensor.RandUniform":          "test fixture: uniform random tensors",
	"tensor.Tensor.HasNaN":        "test fixture: NaN guard for training tests",
	"nn.ResNet50Config":           "the paper's full-scale ResNet-50 backbone",
	"nn.ResNet101Config":          "the paper's full-scale ResNet-101 backbone",
	"nn.SaveParams":               "phase I/II to phase III checkpoint flow (TestCheckpointResumesPhaseIII)",
	"nn.LoadParams":               "phase I/II to phase III checkpoint flow (TestCheckpointResumesPhaseIII)",
	"nn.SaveParamsFile":           "phase I/II to phase III checkpoint flow (TestCheckpointResumesPhaseIII)",
	"nn.LoadParamsFile":           "phase I/II to phase III checkpoint flow (TestCheckpointResumesPhaseIII)",
	"nn.StateParams":              "phase I/II to phase III checkpoint flow (TestCheckpointResumesPhaseIII)",
}

// reachStdlibMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, json.Marshaler)
// even when no loaded package names the interface.
var reachStdlibMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "MarshalJSON": true,
}

const reachModule = "repro/internal/"

// reachDecl is one package-level declaration of the root module.
type reachDecl struct {
	pkg  *Package
	node ast.Node // syntax walked once the declaration is reached
	kind string   // func, method, type, var or const
	name string
	file string
	line int
}

// reachKey names a package-level object, or a method by its receiver's
// type, identically whether obj came from source or from export data.
func reachKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func TestReach(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load(filepath.Join(root, "benchmark"), "./...")
	if err != nil {
		t.Fatal(err)
	}

	decls := map[string]*reachDecl{}
	methods := map[string][]string{} // type key → method keys
	var work []string
	reached := map[string]bool{}
	reach := func(key string) {
		if d := decls[key]; d != nil && !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	ifaceMethods := map[string]bool{}
	for name := range reachStdlibMethods {
		ifaceMethods[name] = true
	}
	for _, pkg := range append(append([]*Package{}, pkgs...), bench...) {
		for _, tv := range pkg.Info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					ifaceMethods[iface.Method(i).Name()] = true
				}
			}
		}
	}

	var roots []string
	for _, pkg := range pkgs {
		path := pkg.Types.Path()
		for _, f := range pkg.Syntax {
			add := func(key string, d *reachDecl) {
				pos := pkg.Fset.Position(d.node.Pos())
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				d.pkg, d.file, d.line = pkg, filepath.ToSlash(rel), pos.Line
				decls[key] = d
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						key := path + "." + decl.Name.Name
						if decl.Name.Name == "init" {
							// init may repeat; each one is its own root.
							key += "#" + pkg.Fset.Position(decl.Pos()).String()
							roots = append(roots, key)
						} else if decl.Name.Name == "main" && pkg.Types.Name() == "main" {
							roots = append(roots, key)
						}
						add(key, &reachDecl{node: decl, kind: "func", name: decl.Name.Name})
						continue
					}
					key := reachKey(pkg.Info.Defs[decl.Name])
					recv := key[:strings.LastIndex(key, ".")]
					methods[recv] = append(methods[recv], key)
					add(key, &reachDecl{node: decl, kind: "method", name: decl.Name.Name})
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(path+"."+spec.Name.Name, &reachDecl{node: spec, kind: "type", name: spec.Name.Name})
						case *ast.ValueSpec:
							kind := "const"
							if decl.Tok.String() == "var" {
								kind = "var"
							}
							for _, name := range spec.Names {
								key := path + "." + name.Name
								if name.Name == "_" {
									key += "#" + pkg.Fset.Position(name.Pos()).String()
								}
								add(key, &reachDecl{node: spec, kind: kind, name: name.Name})
								if kind == "var" {
									roots = append(roots, key)
								}
							}
						}
					}
				}
			}
		}
	}
	for _, key := range roots {
		reach(key)
	}
	for _, pkg := range bench {
		for _, obj := range pkg.Info.Uses {
			reach(reachKey(obj))
		}
	}

	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		d := decls[key]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				reach(reachKey(d.pkg.Info.Uses[id]))
			}
			return true
		})
		if d.kind == "type" {
			for _, m := range methods[key] {
				if ifaceMethods[decls[m].name] {
					reach(m)
				}
			}
		}
	}

	// Display keys relative to repro/internal; a keep entry matches its
	// key, or its package's "<pkg>.*".
	short := func(key string) string { return strings.TrimPrefix(key, reachModule) }
	keepOf := func(key string) string {
		k := short(key)
		if _, ok := reachKeep[k]; ok {
			return k
		}
		if i := strings.Index(k, "."); i >= 0 {
			if _, ok := reachKeep[k[:i]+".*"]; ok {
				return k[:i] + ".*"
			}
		}
		return ""
	}
	used := map[string]bool{}
	var errs []string
	for key, d := range decls {
		if d.kind == "var" || d.kind == "const" || !strings.HasPrefix(d.file, "internal/") {
			continue
		}
		at := d.file + ":" + strconv.Itoa(d.line) + ": " + d.kind + " " + short(key)
		keep := keepOf(key)
		used[keep] = true
		switch {
		case keep != "" && reached[key]:
			errs = append(errs, at+" is reached but on reachKeep: drop its entry "+strconv.Quote(keep))
		case keep == "" && !reached[key]:
			errs = append(errs, at+" is reached by no program: delete it, or add it to reachKeep with the reason")
		}
	}
	for keep := range reachKeep {
		if !used[keep] {
			errs = append(errs, "reachKeep entry "+strconv.Quote(keep)+" names nothing: drop it")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}
