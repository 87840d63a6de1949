package classfile

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"
)

// hostile assembles a classfile prefix from big-endian fields: a byte
// slice is appended verbatim, a uint16 as u2, a uint32 as u4.
func hostile(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			b = append(b, v...)
		case string:
			b = append(b, v...)
		case uint16:
			b = binary.BigEndian.AppendUint16(b, v)
		case uint32:
			b = binary.BigEndian.AppendUint32(b, v)
		default:
			panic("hostile: unsupported part")
		}
	}
	return b
}

// utf8Entry is a constant-pool Utf8 entry.
func utf8Entry(s string) []byte {
	return hostile([]byte{byte(TagUtf8)}, uint16(len(s)), s)
}

// TestParseAllocationBoundedByInput feeds Parse headers that declare
// huge tables they do not contain. Every declared count is clamped to
// what the remaining bytes could encode before anything is sized from
// it, so parsing must allocate in proportion to the input, not to the
// declaration: under 4 KiB plus 64 bytes per input byte.
func TestParseAllocationBoundedByInput(t *testing.T) {
	const huge = uint16(0xFFFF)
	magic := hostile(uint32(Magic), uint16(0), uint16(MajorJava7))
	// A pool holding "Code" (#1), "LineNumberTable" (#2),
	// "LocalVariableTable" (#3), "InnerClasses" (#4), "Exceptions" (#5)
	// and "BootstrapMethods" (#6).
	pool := hostile(uint16(7), utf8Entry(AttrCode), utf8Entry(AttrLineNumberTable),
		utf8Entry(AttrLocalVariableTable), utf8Entry(AttrInnerClasses),
		utf8Entry(AttrExceptions), utf8Entry(AttrBootstrapMethods))
	head := hostile(magic, pool, uint16(AccPublic), uint16(0), uint16(0), uint16(0)) // flags, this, super, no interfaces
	// One method whose only attribute has the given name and body.
	method := func(name uint16, body []byte) []byte {
		return hostile(head, uint16(0), uint16(1), uint16(AccPublic), uint16(0), uint16(0),
			uint16(1), name, uint32(len(body)), body)
	}
	// A Code body: stack, locals, empty code, then the rest.
	code := func(rest ...any) []byte {
		return hostile(append([]any{uint16(1), uint16(1), uint32(0)}, rest...)...)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"constant_pool_count", hostile(magic, huge)},
		{"interfaces_count", hostile(magic, uint16(1), uint16(AccPublic), uint16(0), uint16(0), huge)},
		{"fields_count", hostile(magic, uint16(1), uint16(AccPublic), uint16(0), uint16(0), uint16(0), huge)},
		{"methods_count", hostile(head, uint16(0), huge)},
		{"class attributes_count", hostile(head, uint16(0), uint16(0), huge)},
		{"member attributes_count", hostile(head, uint16(0), uint16(1), uint16(AccPublic), uint16(0), uint16(0), huge)},
		{"exception_table_length", method(1, code(huge))},
		{"code attributes_count", method(1, code(uint16(0), huge))},
		{"line_number_table_length", method(1, code(uint16(0), uint16(1), uint16(2), uint32(2), huge))},
		{"local_variable_table_length", method(1, code(uint16(0), uint16(1), uint16(3), uint32(2), huge))},
		{"exceptions number", method(5, hostile(huge))},
		{"inner classes number", hostile(head, uint16(0), uint16(0), uint16(1), uint16(4), uint32(2), huge)},
		{"bootstrap arguments", hostile(head, uint16(0), uint16(0), uint16(1), uint16(6), uint32(6), uint16(1), uint16(0), huge)},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.data); err == nil {
			t.Errorf("%s: hostile header parsed without error", tc.name)
			continue
		}
		const reps = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			Parse(tc.data)
		}
		runtime.ReadMemStats(&after)
		perParse := (after.TotalAlloc - before.TotalAlloc) / reps
		if bound := uint64(4096 + 64*len(tc.data)); perParse >= bound {
			t.Errorf("%s: %d-byte input allocates %d bytes per parse, bound %d", tc.name, len(tc.data), perParse, bound)
		}
	}
}

// TestDecodeStackMapAllocationBoundedByInput holds DecodeStackMap to
// Parse's rule: a table declaring 65,535 frames in two bytes must not
// size anything from the declaration.
func TestDecodeStackMapAllocationBoundedByInput(t *testing.T) {
	a := &StackMapTableAttr{Raw: []byte{0xff, 0xff}}
	if _, err := DecodeStackMap(a); err == nil {
		t.Fatal("truncated StackMapTable decoded without error")
	}
	const reps = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		DecodeStackMap(a)
	}
	runtime.ReadMemStats(&after)
	if perDecode := (after.TotalAlloc - before.TotalAlloc) / reps; perDecode >= 4096 {
		t.Errorf("2-byte table allocates %d bytes per decode, bound 4096", perDecode)
	}
}

// TestWrittenFileEqualsParse pins the writer's half of the
// lower-then-execute contract on the inputs where a built File and its
// bytes can drift apart: Utf8 constants modified UTF-8 cannot carry
// verbatim (a rune beyond the BMP, an invalid UTF-8 byte), one with an
// embedded NUL, and an empty code array left nil. Writing leaves the
// bytes exactly as before and the File Equal to Parse of them.
func TestWrittenFileEqualsParse(t *testing.T) {
	f := New("T")
	for _, s := range []string{"\U0001F600", "a\xffb", "nul\x00"} {
		f.Pool.AddString(s)
	}
	m := f.AddMethod(AccPublic|AccStatic, "m", "()V")
	m.Attributes = append(m.Attributes, &CodeAttr{MaxLocals: 1})
	data, err := f.AppendBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = "cafebabe00000033000e010001540700010100106a6176612f6c616e672f4f626a656374070003010006eda0bdedb88008000501000561efbfbd620800070100056e756cc0800800090100016d010003282956010004436f64650021000200040000000000010009000b000c0001000d0000000c0000000100000000000000000000"
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("written bytes changed:\n got %s\nwant %s", got, want)
	}
	g, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(f, g) {
		t.Fatalf("written File differs from Parse of its bytes:\n%s\nvs\n%s", f.Dump(), g.Dump())
	}
	for idx, decoded := range map[uint16]string{5: "\uFFFD\uFFFD", 7: "a\uFFFDb", 9: "nul\x00"} {
		if s, _ := f.Pool.Utf8(idx); s != decoded {
			t.Errorf("Utf8 #%d after writing = %q, want the decoded form %q", idx, s, decoded)
		}
	}
}

// TestWriteRejectsUncountableTables: a table longer than its u2 count
// can express fails the write. A truncated count would write bytes
// that parse to a shorter table than the File holds.
func TestWriteRejectsUncountableTables(t *testing.T) {
	long := make([]LineNumberEntry, 0x10000)
	for _, a := range []Attribute{
		&CodeAttr{Handlers: make([]ExceptionHandler, 0x10000)},
		&CodeAttr{Attributes: []Attribute{&LineNumberTableAttr{Entries: long}}},
		&ExceptionsAttr{Classes: make([]uint16, 0x10000)},
	} {
		f := New("T")
		m := f.AddMethod(AccPublic|AccStatic, "m", "()V")
		m.Attributes = []Attribute{a}
		if _, err := f.AppendBytes(nil); err == nil {
			t.Errorf("%s with a 65536-entry table written without error", a.AttrName())
		}
	}
}

// sameFile reports whether two parsed files are structurally equal:
// header, pool entries, tables and attributes (arena bookkeeping
// excluded).
func sameFile(a, b *File) bool {
	return a.Minor == b.Minor && a.Major == b.Major && a.AccessFlags == b.AccessFlags &&
		a.ThisClass == b.ThisClass && a.SuperClass == b.SuperClass &&
		reflect.DeepEqual(a.Pool.Entries, b.Pool.Entries) &&
		reflect.DeepEqual(a.Interfaces, b.Interfaces) &&
		reflect.DeepEqual(a.Fields, b.Fields) &&
		reflect.DeepEqual(a.Methods, b.Methods) &&
		reflect.DeepEqual(a.Attributes, b.Attributes)
}

// FuzzParse checks two contracts on arbitrary bytes. Parsing then
// re-serialising reaches a fixpoint after one round: whatever Parse
// accepts, AppendBytes writes a class that parses back to the same
// bytes. And a reused Parser, fed a sequence of inputs, returns the
// same File and re-serialised bytes as a fresh Parse of each. The seed
// corpus lives in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	sample, err := buildSample().Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			return
		}
		once, err := g.AppendBytes(nil)
		if err != nil {
			return // e.g. interning attribute names overflowed the pool
		}
		h, err := Parse(once)
		if err != nil {
			t.Fatalf("re-serialised class does not parse: %v", err)
		}
		twice, err := h.AppendBytes(nil)
		if err != nil {
			t.Fatalf("re-serialising the re-parsed class: %v", err)
		}
		if string(once) != string(twice) {
			t.Fatal("parse → write → parse → write is not a fixpoint")
		}

		var p Parser
		for i, in := range [][]byte{data, sample, once, data[:len(data)/2], data} {
			fresh, ferr := Parse(in)
			reused, rerr := p.Parse(in)
			if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
				t.Fatalf("input %d: fresh parse error %v, reused parser error %v", i, ferr, rerr)
			}
			if ferr != nil {
				continue
			}
			if !sameFile(fresh, reused) {
				t.Fatalf("input %d: reused parser's File differs from a fresh parse", i)
			}
			fb, ferr := fresh.AppendBytes(nil)
			rb, rerr := reused.AppendBytes(nil)
			if (ferr == nil) != (rerr == nil) || string(fb) != string(rb) {
				t.Fatalf("input %d: reused parser's File re-serialises differently", i)
			}
		}
	})
}
