package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/descriptor"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// maskClass builds a small class that references its own name through
// several pool entries (ThisClass→Class→Utf8 plus a self-typed method
// descriptor is overkill here — the Class chain is what every mutant
// has), with one extra Utf8 payload the tests can vary.
func maskClass(name, payload string) []byte {
	f := classfile.New(name)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, payload, "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1}, // return
	})
	data, err := f.Bytes()
	if err != nil {
		panic(err)
	}
	return data
}

// TestVerifyFingerprintSelfNameCollision pins the mask's purpose: two
// classes identical up to the spelling of their own name — including
// names of different lengths, which shift every subsequent byte offset
// in the pool — must collide, so a lineage's renamed-per-iteration
// mutants share one verify-band key.
func TestVerifyFingerprintSelfNameCollision(t *testing.T) {
	a := analysis.VerifyFingerprint(maskClass("Alpha", "go"), "Alpha")
	b := analysis.VerifyFingerprint(maskClass("Mutant_00042", "go"), "Mutant_00042")
	if a != b {
		t.Fatalf("self-name-masked fingerprints diverged: %#x vs %#x", a, b)
	}
}

// TestVerifyFingerprintUtf8EditDiverges pins the mask's limit: editing
// any referenced Utf8 that is *not* the self-name — here a method name,
// same length so offsets do not move — must change the fingerprint,
// because the verifiers read that content.
func TestVerifyFingerprintUtf8EditDiverges(t *testing.T) {
	a := analysis.VerifyFingerprint(maskClass("Alpha", "go"), "Alpha")
	b := analysis.VerifyFingerprint(maskClass("Alpha", "gp"), "Alpha")
	if a == b {
		t.Fatalf("single Utf8 edit did not change the fingerprint: %#x", a)
	}
}

// TestVerifyFingerprintNestedSelfReference pins substring behaviour:
// strings that merely *contain* the self-name ("AA", "LA;" for a class
// named "A") are not the self-name and must be hashed verbatim, not
// masked.
func TestVerifyFingerprintNestedSelfReference(t *testing.T) {
	a := analysis.VerifyFingerprint(maskClass("A", "AA"), "A")
	b := analysis.VerifyFingerprint(maskClass("A", "AB"), "A")
	if a == b {
		t.Fatal("a string containing the self-name was masked with it")
	}
}

// fpSafeName matches class names the rename invariant below can reason
// about: plain ASCII identifiers whose loader-visible properties
// (validity bits, special-name table) are stable under same-length
// letter substitution.
var fpSafeName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]+$`)

// FuzzVerifyFingerprintMask checks the mask's defining invariant on
// arbitrary parseable classfiles: re-serialising a file under a fresh
// class name (same validity class, no aliasing with other pool
// strings) must not move its verify fingerprint, while the seeds also
// exercise pool strings that nest the self-name as a substring. The
// seed corpus covers the nested-self-reference shapes directly; `go
// test -fuzz` explores mutated bytes.
func FuzzVerifyFingerprintMask(f *testing.F) {
	f.Add(maskClass("A", "AA"))         // name nested in a longer string
	f.Add(maskClass("A", "go"))         // plain minimal class
	f.Add(maskClass("Outer", "Outer_")) // prefix-nested self-reference
	f.Add(maskClass("Mutant_1", "m"))   // lineage-style generated name

	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return
		}
		cc := cf.Pool.Get(cf.ThisClass)
		if cc == nil || cc.Tag != classfile.TagClass {
			return
		}
		utf := cf.Pool.Get(cc.Ref1)
		if utf == nil || utf.Tag != classfile.TagUtf8 {
			return
		}
		oldName := utf.Str
		if !fpSafeName.MatchString(oldName) || oldName == "main" {
			return
		}
		// Same-length letter substitution keeps every property the
		// fingerprint prefix hashes (validity bits, special names).
		newName := "Zx" + oldName[2:]
		if newName == oldName {
			newName = "Qy" + oldName[2:]
		}
		// Renaming must not create or destroy aliasing with other pool
		// strings: skip files where either spelling appears elsewhere.
		for i := 1; i < cf.Pool.Count(); i++ {
			if c := cf.Pool.Get(uint16(i)); c != nil && c.Tag == classfile.TagUtf8 && c != utf {
				if c.Str == oldName || c.Str == newName {
					return
				}
			}
		}
		orig, err := cf.Bytes()
		if err != nil {
			return
		}
		utf.Str = newName
		renamed, err := cf.Bytes()
		utf.Str = oldName
		if err != nil {
			return
		}
		a := analysis.VerifyFingerprint(orig, oldName)
		b := analysis.VerifyFingerprint(renamed, newName)
		if a != b {
			t.Fatalf("rename %q→%q moved the verify fingerprint: %#x vs %#x",
				oldName, newName, a, b)
		}
		// And the mask must never erase a non-self edit: flipping the
		// spelling while keeping the old selfName argument makes the
		// entry an ordinary (hashed) string, so the keys must differ.
		if strings.Contains(newName, oldName) {
			return // nested spellings can re-collide legitimately
		}
		if analysis.VerifyFingerprint(renamed, oldName) == a {
			t.Fatalf("unmasked rename %q→%q kept the fingerprint", oldName, newName)
		}
	})
}

// referenceFingerprint is the direct statement of Fingerprint's
// skeleton hash, kept as the oracle for the optimised kernel: it scans
// every earlier pool slot for a content-equal Utf8 and tests each
// validity property with its own descriptor scan.
func referenceFingerprint(f *classfile.File) uint64 {
	h := uint64(14695981039346656037)
	u8 := func(v byte) { h = (h ^ uint64(v)) * 1099511628211 }
	u16 := func(v uint16) {
		u8(byte(v >> 8))
		u8(byte(v))
	}
	bits := func(s string) byte {
		var b byte
		if descriptor.ValidField(s) {
			b |= 1
		}
		if descriptor.ValidMethod(s) {
			b |= 2
		}
		if descriptor.ValidClassName(s) {
			b |= 4
		}
		if strings.HasPrefix(s, "[") {
			b |= 8
		}
		if md, err := descriptor.ParseMethod(s); err == nil && md.Return.IsVoid() {
			b |= 16
		}
		return b
	}
	special := map[string]byte{
		"java/lang/Object": 1, "<init>": 2, "<clinit>": 3, "main": 4,
		"()V": 5, "([Ljava/lang/String;)V": 6,
	}

	u16(f.Minor)
	u16(f.Major)
	u16(uint16(f.AccessFlags))
	u16(f.ThisClass)
	u16(f.SuperClass)
	u16(uint16(len(f.Interfaces)))
	for _, idx := range f.Interfaces {
		u16(idx)
	}
	cp := f.Pool
	u16(uint16(cp.Count()))
	for i := 0; i < cp.Count(); i++ {
		c := cp.Get(uint16(i))
		if c == nil {
			u8(0)
			continue
		}
		u8(byte(c.Tag))
		if c.Tag == classfile.TagUtf8 {
			firstEq := i
			for j := 1; j < i; j++ {
				if o := cp.Get(uint16(j)); o != nil && o.Tag == classfile.TagUtf8 && o.Str == c.Str {
					firstEq = j
					break
				}
			}
			u16(uint16(firstEq))
			u8(bits(c.Str))
			u8(special[c.Str])
		} else {
			u16(c.Ref1)
			u16(c.Ref2)
			u8(c.Kind)
		}
	}
	member := func(m *classfile.Member) {
		u16(uint16(m.AccessFlags))
		u16(m.NameIndex)
		u16(m.DescIndex)
		if m.Code() != nil {
			u8(1)
		} else {
			u8(0)
		}
	}
	u16(uint16(len(f.Fields)))
	for _, fl := range f.Fields {
		member(fl)
	}
	u16(uint16(len(f.Methods)))
	for _, m := range f.Methods {
		member(m)
	}
	return h
}

// TestFingerprintMatchesReference checks the optimised Fingerprint
// against referenceFingerprint on the seed corpus, on every mutant a
// short campaign generates, and on the classfile parser's fuzz corpus.
func TestFingerprintMatchesReference(t *testing.T) {
	var inputs [][]byte
	seeds := seedgen.Generate(seedgen.DefaultOptions(60, 1))
	for _, s := range seeds {
		f, err := jimple.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		data, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, data)
	}
	nSeeds := len(inputs)

	res, err := campaign.Run(campaign.Config{
		Algorithm:    campaign.Classfuzz,
		Criterion:    coverage.STBR,
		Source:       campaign.FlatSeeds(seeds),
		Iterations:   1500,
		Rand:         1,
		RefSpec:      jvm.HotSpot9(),
		KeepGenBytes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Gen {
		inputs = append(inputs, g.Data)
	}
	nMutants := len(res.Gen)

	dir := filepath.Join("..", "classfile", "testdata", "fuzz", "FuzzParse")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	nFuzz := 0
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the header line and one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		inputs = append(inputs, []byte(data))
		nFuzz++
	}

	parsed := 0
	for i, data := range inputs {
		f, err := classfile.Parse(data)
		if err != nil {
			continue
		}
		parsed++
		if got, want := analysis.Fingerprint(f), referenceFingerprint(f); got != want {
			t.Errorf("input %d (%d seeds, %d mutants, %d fuzz files): Fingerprint %#x, reference %#x",
				i, nSeeds, nMutants, nFuzz, got, want)
		}
	}
	if parsed <= nSeeds+nMutants/2 {
		t.Fatalf("only %d of %d inputs parsed", parsed, len(inputs))
	}

	// Lowering interns every string, so no input above has a duplicate
	// Utf8 entry. Append duplicates of existing strings, and strings on
	// the edges of each validity property, to the seeds' pools.
	edge := []string{"", "(", "()", "()V", "(I)V", "(V)V", "()LX;", "(I)[I", "([Ljava/lang/String;)V",
		"I", "V", "[I", "[V", "[[", "LX;", "L;", "a/b", "a//b", "/a", "a.b", "x"}
	for i, data := range inputs[:nSeeds] {
		f, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < f.Pool.Count(); j++ {
			if c := f.Pool.Get(uint16(j)); c != nil && c.Tag == classfile.TagUtf8 && j%(1+i%3) == 0 {
				edge = append(edge, c.Str)
			}
		}
		for _, s := range append(edge, edge...) {
			f.Pool.Entries = append(f.Pool.Entries, &classfile.Constant{Tag: classfile.TagUtf8, Str: s})
		}
		if got, want := analysis.Fingerprint(f), referenceFingerprint(f); got != want {
			t.Errorf("seed %d with duplicate Utf8 entries: Fingerprint %#x, reference %#x", i, got, want)
		}
		edge = edge[:21]
	}
}
