package analysis

// The test harness mirrors x/tools' analysistest on the standard
// library: each testdata/<name> directory is one package; trailing
// `// want "regex"` comments state the diagnostics the suite must
// produce on that line (in .go and .s files alike), and every
// diagnostic must be wanted. Files excluded by the amd64 && !noasm
// reference configuration are parsed but not type-checked, exactly as
// the driver treats them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// listExports resolves patterns (and all their dependencies) to gc
// export-data files via `go list -export`, for testdata packages that
// only need importable type information.
func listExports(dir string, patterns ...string) (map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
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
	}
	return exports, nil
}

// stdlibExports resolves export-data files for stdlib imports used by
// testdata packages, once per process.
var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

func stdlibExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		pkgs, err := listExports(".", "fmt", "math/rand", "time", "sync", "sort", "strconv")
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap = pkgs
	})
	if exportsErr != nil {
		t.Fatalf("resolving stdlib export data: %v", exportsErr)
	}
	return exportsMap
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want (.*)$")
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants reads trailing want comments from one file.
func parseWants(t *testing.T, path string, wants map[string]map[int][]*expectation) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		m := wantRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
			pat := arg[1]
			if pat == "" {
				pat = arg[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, pat, err)
			}
			if wants[path] == nil {
				wants[path] = map[int][]*expectation{}
			}
			wants[path][line] = append(wants[path][line], &expectation{re: re})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// runAnalysisTest loads testdata/<name> as one package, runs the given
// analyzers (plus the implicit allowlint pass), and matches
// diagnostics against want comments.
func runAnalysisTest(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var goFiles, ignored, other, all []string
	cfset := token.NewFileSet()
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		switch filepath.Ext(e.Name()) {
		case ".go":
			all = append(all, path)
			f, err := parser.ParseFile(cfset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			if visibleUnder(fileConstraint(f), path, asmCfg) {
				goFiles = append(goFiles, path)
			} else {
				ignored = append(ignored, path)
			}
		case ".s":
			all = append(all, path)
			other = append(other, path)
		}
	}

	pkg, err := CheckFiles(name, goFiles, ignored, other, stdlibExports(t))
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	wants := map[string]map[int][]*expectation{}
	for _, path := range all {
		parseWants(t, path, wants)
	}
	// WANTS.txt holds expectations that cannot ride on the flagged line
	// itself — //hdc:allow findings land on the comment, and a // want
	// trailer would become part of the suppression reason. Lines are
	// `<file>:<line>: <regex>`.
	if side, err := os.ReadFile(filepath.Join(dir, "WANTS.txt")); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(side)), "\n") {
			parts := strings.SplitN(line, ":", 3)
			if len(parts) != 3 {
				t.Fatalf("WANTS.txt: malformed line %q", line)
			}
			ln, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				t.Fatalf("WANTS.txt: bad line number in %q", line)
			}
			re, err := regexp.Compile(strings.TrimSpace(parts[2]))
			if err != nil {
				t.Fatalf("WANTS.txt: bad regex in %q: %v", line, err)
			}
			path := filepath.Join(dir, parts[0])
			if wants[path] == nil {
				wants[path] = map[int][]*expectation{}
			}
			wants[path][ln] = append(wants[path][ln], &expectation{re: re})
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, exp := range wants[pos.Filename][pos.Line] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for path, byLine := range wants {
		for line, exps := range byLine {
			for _, exp := range exps {
				if !exp.matched {
					t.Errorf("%s:%d: want %q: no matching diagnostic", path, line, exp.re)
				}
			}
		}
	}
}

func TestHotPathAlloc(t *testing.T) { runAnalysisTest(t, "hotpath", HotPathAlloc) }
func TestDeterminism(t *testing.T)  { runAnalysisTest(t, "determ", Determinism) }
func TestVersionKeyed(t *testing.T) { runAnalysisTest(t, "version", VersionKeyed) }
func TestEpochStore(t *testing.T)   { runAnalysisTest(t, "epoch", VersionKeyed) }
func TestAsmPair(t *testing.T)      { runAnalysisTest(t, "asmpair", AsmPair) }
func TestAllowLint(t *testing.T)    { runAnalysisTest(t, "allow", HotPathAlloc, Determinism) }
func TestSuiteRegistry(t *testing.T) {
	if len(All()) < 4 {
		t.Fatalf("suite lost analyzers: %d", len(All()))
	}
	names := ByName()
	for _, want := range []string{"hotpathalloc", "determinism", "versionkeyed", "asmpair", AllowLintName} {
		if !names[want] {
			t.Errorf("analyzer %q missing from registry", want)
		}
	}
}
