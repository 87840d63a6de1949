package descriptor

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseField(t *testing.T) {
	cases := []struct {
		in   string
		kind byte
		dims int
		cls  string
	}{
		{"I", 'I', 0, ""},
		{"J", 'J', 0, ""},
		{"Z", 'Z', 0, ""},
		{"Ljava/lang/String;", 'L', 0, "java/lang/String"},
		{"[I", 'I', 1, ""},
		{"[[[D", 'D', 3, ""},
		{"[Ljava/util/Map;", 'L', 1, "java/util/Map"},
	}
	for _, c := range cases {
		got, err := ParseField(c.in)
		if err != nil {
			t.Errorf("ParseField(%q): %v", c.in, err)
			continue
		}
		if got.Kind != c.kind || got.Dims != c.dims || got.ClassName != c.cls {
			t.Errorf("ParseField(%q) = %+v", c.in, got)
		}
		if got.String() != c.in {
			t.Errorf("round trip %q -> %q", c.in, got.String())
		}
	}
}

func TestParseFieldErrors(t *testing.T) {
	for _, in := range []string{"", "V", "X", "L;", "Ljava/lang/String", "II", "[", "[V", "Ia"} {
		if _, err := ParseField(in); err == nil {
			t.Errorf("ParseField(%q) should fail", in)
		}
	}
}

func TestParseMethod(t *testing.T) {
	m, err := ParseMethod("(ILjava/lang/String;[J)V")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Params) != 3 {
		t.Fatalf("params = %d, want 3", len(m.Params))
	}
	if !m.Return.IsVoid() {
		t.Error("return should be void")
	}
	if m.ParamSlots() != 1+1+1 {
		t.Errorf("slots = %d, want 3", m.ParamSlots())
	}
	m2, err := ParseMethod("(JD)J")
	if err != nil {
		t.Fatal(err)
	}
	if m2.ParamSlots() != 4 {
		t.Errorf("wide slots = %d, want 4", m2.ParamSlots())
	}
	if m2.String() != "(JD)J" {
		t.Errorf("round trip = %q", m2.String())
	}
	empty, err := ParseMethod("()V")
	if err != nil || len(empty.Params) != 0 {
		t.Errorf("()V: %v %v", empty, err)
	}
}

func TestParseMethodErrors(t *testing.T) {
	for _, in := range []string{"", "()", "I", "(V)V", "(I", "(I)VV", "(I)", ")V", "(I)[V"} {
		if _, err := ParseMethod(in); err == nil {
			t.Errorf("ParseMethod(%q) should fail", in)
		}
	}
}

func TestTypeProperties(t *testing.T) {
	if !Long.IsWide() || !Double.IsWide() || Int.IsWide() {
		t.Error("wideness misclassified")
	}
	if Void.Slots() != 0 || Long.Slots() != 2 || Int.Slots() != 1 {
		t.Error("slot counts wrong")
	}
	obj := Object("java/lang/Object")
	if !obj.IsReference() || obj.IsPrimitive() {
		t.Error("object classification wrong")
	}
	arr := Array(Int, 2)
	if !arr.IsReference() || arr.IsWide() {
		t.Error("array classification wrong")
	}
	if arr.String() != "[[I" {
		t.Errorf("array string = %q", arr.String())
	}
}

func TestJavaRendering(t *testing.T) {
	cases := map[string]string{
		"I":                  "int",
		"[[Z":                "boolean[][]",
		"Ljava/lang/String;": "java.lang.String",
		"[Ljava/util/List;":  "java.util.List[]",
		"J":                  "long",
	}
	for in, want := range cases {
		typ, err := ParseField(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := typ.Java(); got != want {
			t.Errorf("Java(%q) = %q, want %q", in, got, want)
		}
	}
	if Void.Java() != "void" {
		t.Error("void rendering")
	}
}

func TestValidClassName(t *testing.T) {
	valid := []string{"java/lang/Object", "M123", "a/b/c", "[I", "[Ljava/lang/String;"}
	for _, s := range valid {
		if !ValidClassName(s) {
			t.Errorf("%q should be valid", s)
		}
	}
	invalid := []string{"", "a//b", "/a", "a/", "a;b", "a.b", "ja[va"}
	for _, s := range invalid {
		if ValidClassName(s) {
			t.Errorf("%q should be invalid", s)
		}
	}
}

// randomType builds a random valid descriptor Type.
func randomType(rng *rand.Rand, allowVoid bool) Type {
	kinds := []byte{'B', 'C', 'D', 'F', 'I', 'J', 'S', 'Z', 'L'}
	k := kinds[rng.Intn(len(kinds))]
	t := Type{Kind: k}
	if k == 'L' {
		names := []string{"java/lang/Object", "java/lang/String", "a/b/C", "M1"}
		t.ClassName = names[rng.Intn(len(names))]
	}
	t.Dims = rng.Intn(4)
	if allowVoid && t.Dims == 0 && rng.Intn(8) == 0 {
		return Void
	}
	return t
}

// TestPropertyFieldRoundTrip: String∘ParseField is the identity on
// generated types.
func TestPropertyFieldRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := randomType(rng, false)
		parsed, err := ParseField(typ.String())
		if err != nil {
			return false
		}
		return parsed == typ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMethodRoundTrip: String∘ParseMethod is the identity.
func TestPropertyMethodRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Method{Return: randomType(rng, true)}
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			m.Params = append(m.Params, randomType(rng, false))
		}
		parsed, err := ParseMethod(m.String())
		if err != nil {
			return false
		}
		if parsed.Return != m.Return || len(parsed.Params) != len(m.Params) {
			return false
		}
		for i := range m.Params {
			if parsed.Params[i] != m.Params[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestValidScannersMatchParsers pins the allocation-free validity
// scanners to the parsers: for a corpus of legal and garbage strings
// (including randomly generated ones), ValidField/ValidMethod and the
// slot counter must agree exactly with ParseField/ParseMethod, and
// ParseMethodInto over one reused parameter list with ParseMethod.
func TestValidScannersMatchParsers(t *testing.T) {
	corpus := []string{
		"", "I", "V", "[I", "[[J", "Ljava/lang/String;", "[Ljava/lang/Object;",
		"L;", "L", "Lfoo", "X", "[V", "[[V", "II", "Ijunk", "Ljava/lang/String;;",
		"()V", "()I", "(I)V", "(Ljava/lang/String;[I)J", "(V)V", "([V)V",
		"(", ")", "()", "()X", "()VV", "(I", "(L;)V", "(I)Lfoo;", "(I)Lfoo",
		"()[V", "()[[Ljava/a/b;", "(BCDFIJSZ)Z", "(Ljava/lang/String;",
	}
	// Deep array dims around the 255 limit.
	deep := strings.Repeat("[", 255) + "I"
	tooDeep := strings.Repeat("[", 256) + "I"
	corpus = append(corpus, deep, tooDeep, "("+deep+")V", "("+tooDeep+")V")
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte("BCDFIJSZVL[();/ajX")
	for i := 0; i < 3000; i++ {
		n := rng.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		corpus = append(corpus, string(b))
	}
	var buf []Type // ParseMethodInto's reused parameter list
	for _, s := range corpus {
		_, ferr := ParseField(s)
		if got, want := ValidField(s), ferr == nil; got != want {
			t.Errorf("ValidField(%q) = %v, ParseField err = %v", s, got, ferr)
		}
		md, merr := ParseMethod(s)
		if got, want := ValidMethod(s), merr == nil; got != want {
			t.Errorf("ValidMethod(%q) = %v, ParseMethod err = %v", s, got, merr)
		}
		mi, ierr := ParseMethodInto(s, buf)
		if fmt.Sprint(ierr) != fmt.Sprint(merr) || mi.Return != md.Return || !slices.Equal(mi.Params, md.Params) {
			t.Errorf("ParseMethodInto(%q) = %v, %v; ParseMethod = %v, %v", s, mi, ierr, md, merr)
		}
		if ierr == nil {
			buf = mi.Params
		}
		if params, ret, ok := MethodSlots(s); ok != (merr == nil) || (ok && (params != md.ParamSlots() || ret != md.Return.Slots())) {
			t.Errorf("MethodSlots(%q) = %d, %d, %v; ParseMethod = %v, %v", s, params, ret, ok, md, merr)
		}
	}
}

// FuzzMethodSlots pins MethodSlots to ParseMethod: it accepts exactly
// the strings ParseMethod accepts, and on those returns ParamSlots and
// Return.Slots, without allocating. testdata/fuzz/FuzzMethodSlots holds
// malformed strings, arrays, V in parameter position and wide types.
func FuzzMethodSlots(f *testing.F) {
	for _, s := range []string{"()V", "(IJ)D", "([J[[D)J", "(Ljava/lang/String;)V"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		params, ret, ok := MethodSlots(s)
		md, err := ParseMethod(s)
		if ok != (err == nil) {
			t.Fatalf("MethodSlots(%q) ok = %v, ParseMethod err = %v", s, ok, err)
		}
		if ok && (params != md.ParamSlots() || ret != md.Return.Slots()) {
			t.Fatalf("MethodSlots(%q) = %d, %d, want %d, %d", s, params, ret, md.ParamSlots(), md.Return.Slots())
		}
		if n := testing.AllocsPerRun(1, func() { MethodSlots(s) }); n != 0 {
			t.Fatalf("MethodSlots(%q) allocates %.0f times", s, n)
		}
	})
}
