package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSrc parses one source fragment as a package and returns the
// findings.
func lintSrc(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Files(fset, []*ast.File{f})
}

func wantRules(t *testing.T, got []Finding, rules ...string) {
	t.Helper()
	if len(got) != len(rules) {
		t.Fatalf("got %d finding(s) %v, want rules %v", len(got), got, rules)
	}
	for i, r := range rules {
		if got[i].Rule != r {
			t.Errorf("finding %d: rule %q, want %q (%s)", i, got[i].Rule, r, got[i])
		}
	}
}

func TestTimeNow(t *testing.T) {
	src := `package p
import "time"
func f() time.Duration {
	start := time.Now()
	return time.Since(start)
}`
	wantRules(t, lintSrc(t, src), "time-now", "time-now")
}

func TestTimeNowWaived(t *testing.T) {
	src := `package p
import "time"
func f() time.Time {
	//detlint:ok timestamping the report only
	a := time.Now()
	b := time.Now() //detlint:ok trailing waiver
	_ = a
	return b
}`
	wantRules(t, lintSrc(t, src))
}

func TestBareWaiverDoesNotCount(t *testing.T) {
	src := `package p
import "time"
func f() time.Time {
	return time.Now() //detlint:ok
}`
	wantRules(t, lintSrc(t, src), "time-now")
}

func TestRandGlobal(t *testing.T) {
	src := `package p
import "math/rand"
func f() int {
	r := rand.New(rand.NewSource(1)) // explicit stream: sanctioned
	return r.Intn(10) + rand.Intn(10)
}`
	got := lintSrc(t, src)
	wantRules(t, got, "rand-global")
	if !strings.Contains(got[0].Message, "rand.Intn") {
		t.Errorf("message %q does not name the call", got[0].Message)
	}
}

func TestMapRangeAppend(t *testing.T) {
	src := `package p
func f(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}`
	wantRules(t, lintSrc(t, src), "map-range-emission")
}

func TestMapRangeAppendSortedAfter(t *testing.T) {
	src := `package p
import "sort"
func f(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}`
	wantRules(t, lintSrc(t, src))
}

func TestMapRangeNumericFold(t *testing.T) {
	src := `package p
func f(m map[string][]int) int {
	n := 0
	for _, v := range m {
		n += len(v)
	}
	return n
}`
	wantRules(t, lintSrc(t, src))
}

func TestMapRangeStringConcat(t *testing.T) {
	src := `package p
func f(m map[string]int) string {
	var s string
	for k := range m {
		s += k
	}
	return s
}`
	wantRules(t, lintSrc(t, src), "map-range-emission")
}

func TestMapRangePrint(t *testing.T) {
	src := `package p
import "fmt"
func f(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}`
	wantRules(t, lintSrc(t, src), "map-range-emission")
}

func TestSliceRangeIsFine(t *testing.T) {
	src := `package p
type Multi []func()
func f(m Multi, s []string) []string {
	var out []string
	for _, g := range m {
		g()
	}
	for _, v := range s {
		out = append(out, v)
	}
	return out
}`
	wantRules(t, lintSrc(t, src))
}

func TestNamedMapAndFieldMap(t *testing.T) {
	src := `package p
type set map[string]bool
type box struct{ items map[int]string }
func f(s set, b *box) []string {
	var out []string
	for k := range s {
		out = append(out, k)
	}
	for _, v := range b.items {
		out = append(out, v)
	}
	return out
}`
	wantRules(t, lintSrc(t, src), "map-range-emission", "map-range-emission")
}

func TestMapIndexedValueIsNotMap(t *testing.T) {
	// Ranging the *value* of a map-of-slices lookup is slice order.
	src := `package p
func f(m map[string][]string) []string {
	var out []string
	for _, v := range m["k"] {
		out = append(out, v)
	}
	return out
}`
	wantRules(t, lintSrc(t, src))
}

func TestMakeAndLiteralMaps(t *testing.T) {
	src := `package p
func f() []int {
	a := make(map[int]int)
	b := map[string]int{"x": 1}
	var out []int
	for k := range a {
		out = append(out, k)
	}
	for _, v := range b {
		out = append(out, v)
	}
	return out
}`
	wantRules(t, lintSrc(t, src), "map-range-emission", "map-range-emission")
}

// TestEnginePackagesClean pins what make lint checks: every internal
// package lints clean (reporting-only clock reads carry waivers).
func TestEnginePackagesClean(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("..", e.Name())
		findings, err := Dir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}
