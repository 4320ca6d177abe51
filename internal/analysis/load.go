package analysis

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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader resolves packages with `go list -export -deps -json` and
// type-checks target packages against the gc export data the build
// cache already holds — the same source of truth the compiler uses,
// with no dependency beyond the standard library and the go tool.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir               string
	ImportPath        string
	Name              string
	Export            string
	GoFiles           []string
	IgnoredGoFiles    []string
	IgnoredOtherFiles []string
	SFiles            []string
	DepOnly           bool
	Standard          bool
	Error             *struct{ Err string }
}

// Load lists patterns in dir and returns the fully parsed,
// type-checked target packages (dependencies are consumed as export
// data only).
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var targets []*listPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			cp := p
			targets = append(targets, &cp)
		}
	}
	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("%s: %s", t.ImportPath, t.Error.Err)
		}
		pkg, err := typeCheck(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses and checks one listed package.
func typeCheck(p *listPkg, exports map[string]string) (*Package, error) {
	var goFiles, ignored, other []string
	for _, f := range p.GoFiles {
		goFiles = append(goFiles, filepath.Join(p.Dir, f))
	}
	for _, f := range p.IgnoredGoFiles {
		ignored = append(ignored, filepath.Join(p.Dir, f))
	}
	for _, f := range p.SFiles {
		other = append(other, filepath.Join(p.Dir, f))
	}
	for _, f := range p.IgnoredOtherFiles {
		if strings.HasSuffix(f, ".s") {
			other = append(other, filepath.Join(p.Dir, f))
		}
	}
	return CheckFiles(p.ImportPath, goFiles, ignored, other, exports)
}

// CheckFiles is CheckFilesLookup resolving export data from a map of
// import path → export file (the `go list -export` shape).
func CheckFiles(importPath string, goFiles, ignoredFiles, otherFiles []string, exports map[string]string) (*Package, error) {
	return CheckFilesLookup(importPath, goFiles, ignoredFiles, otherFiles, func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// CheckFilesLookup parses goFiles and type-checks them as one package,
// importing dependencies through lookup (export-data readers). ignored
// files are parsed without type checking; other files (assembly) pass
// through to the analyzers.
func CheckFilesLookup(importPath string, goFiles, ignoredFiles, otherFiles []string, lookup func(string) (io.ReadCloser, error)) (*Package, error) {
	fset := token.NewFileSet()
	parse := func(paths []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	syntax, err := parse(goFiles)
	if err != nil {
		return nil, err
	}
	// Ignored files may be for other build configurations entirely;
	// parse errors there must not block analysis of the live config.
	var ignoredSyntax []*ast.File
	for _, path := range ignoredFiles {
		if f, err := parser.ParseFile(fset, path, nil, parser.ParseComments); err == nil {
			ignoredSyntax = append(ignoredSyntax, f)
		}
	}

	imp := importer.ForCompiler(fset, "gc", lookup)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := &types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &Package{
		Fset:         fset,
		Syntax:       syntax,
		IgnoredFiles: ignoredSyntax,
		OtherFiles:   otherFiles,
		Types:        tpkg,
		Info:         info,
	}, nil
}
