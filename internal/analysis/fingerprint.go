package analysis

import (
	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jvm"
)

// LoadAnalyzers returns the passes whose diagnostics correspond to
// loading-phase format checks (no CFG construction, so they are cheap
// enough to run per-mutant inside the fuzz loop).
func LoadAnalyzers() []*Analyzer {
	return []*Analyzer{ConstPoolAnalyzer, MembersAnalyzer, StructureAnalyzer}
}

// LoadReject returns the first loading-phase diagnostic a VM with
// policy p enforces, or nil when p's loader accepts f. It is the
// prefilter predicate: a non-nil result means the VM rejects f during
// loading, before any environment or interpreter state is consulted.
func LoadReject(f *classfile.File, p *jvm.Policy) *Diagnostic {
	return firstLoadReject(Run(f, LoadAnalyzers()), p)
}

// Fingerprint hashes the structural skeleton of a classfile: exactly
// the inputs the loading phase reads. Two files with equal fingerprints
// take identical paths through load — the same branch probes fire and
// the same check rejects (or none does) — so a recorded load-phase
// coverage trace can be reused for any fingerprint-equal file.
//
// The skeleton covers versions, access flags, the class/super/interface
// indices, every pool entry's tag and cross-references, and member
// flag/name/descriptor/has-Code tuples. Utf8 entries are abstracted to
// the properties load actually branches on — content-equality classes
// within the file (duplicate detection), descriptor/class-name
// validity, the "[" prefix, the handful of special names, and whether
// the string parses as a void-returning method descriptor — so mutants
// differing only in generated class names or numeric payloads share a
// fingerprint.
func Fingerprint(f *classfile.File) uint64 {
	// Inlined FNV-1a (identical to hash/fnv.New64a) so hashing a
	// skeleton allocates nothing: writing through the hash.Hash64
	// interface forced a heap allocation per appended byte, which made
	// fingerprinting a visible slice of the prefilter's cost.
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	u8 := func(v byte) { h = (h ^ uint64(v)) * fnvPrime64 }
	u16 := func(v uint16) {
		u8(byte(v >> 8))
		u8(byte(v))
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
	// utf8s holds the earlier Utf8 slots, the only candidates for a
	// content-equal predecessor; pools rarely outgrow the stack buffer.
	var utf8Buf [128]uint16
	utf8s := utf8Buf[:0]
	u16(uint16(cp.Count()))
	for i, c := range cp.Entries {
		if i == 0 || c == nil { // slot 0 is reserved, as in ConstPool.Get
			u8(0)
			continue
		}
		u8(byte(c.Tag))
		if c.Tag == classfile.TagUtf8 {
			// First pool index with equal content: the equality classes
			// that drive duplicate-member detection.
			firstEq := uint16(i)
			for _, j := range utf8s {
				if cp.Entries[j].Str == c.Str {
					firstEq = j
					break
				}
			}
			utf8s = append(utf8s, uint16(i))
			u16(firstEq)
			u8(utf8Bits(c.Str))
			u8(specialNameID(c.Str))
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

// ContentFingerprint hashes raw classfile bytes (the same inlined
// FNV-1a as Fingerprint, zero allocations). Unlike Fingerprint, which
// abstracts a file to its load-phase skeleton, this is an exact-content
// hash: the daemon labels each discrepancy's class with it. It
// identifies content for reports only; nothing reuses a result on its
// equality.
func ContentFingerprint(data []byte) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// VerifyFingerprint hashes raw classfile bytes with constant-pool Utf8
// entries equal to the class's own name abstracted away. Two files with
// equal fingerprints differ at most in what the self-name literally
// spells, and the simulated VMs never read that spelling beyond
// equality with other pool strings (self-resolution, circularity) and
// the validity/special-name properties hashed into the prefix — every
// env lookup is guarded by a != self comparison, and the verifiers
// treat the self-class opaquely. Masked-equal files therefore drive
// byte-identical control flow through load, link and run, so a
// recorded coverage trace can be reused across them. The campaign's
// verify band keys its trace cache and verdict memo on this: mutants
// differ from earlier ones only in the iteration-derived class name far
// more often than in any other byte.
//
// The pool walk masks an entry by replacing its length and content
// with a marker, so entries equal to selfName collapse together while
// every other byte of the file is hashed verbatim. Anything the walk
// cannot decode (unknown tag, truncation) falls back to hashing the
// whole file verbatim — a finer key, never a wrong one. Comparison is
// against the standard UTF-8 spelling of selfName; a modified-UTF-8
// mismatch again only makes the key finer.
func VerifyFingerprint(data []byte, selfName string) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	u8 := func(v byte) { h = (h ^ uint64(v)) * fnvPrime64 }
	raw := func(b []byte) {
		for _, v := range b {
			h = (h ^ uint64(v)) * fnvPrime64
		}
	}
	whole := func() uint64 {
		raw(data)
		return h
	}

	// The self-name properties load branches on, so files whose names
	// differ in validity class never collide.
	u8(utf8Bits(selfName))
	u8(specialNameID(selfName))

	// Header through constant_pool_count.
	if len(data) < 10 {
		return whole()
	}
	raw(data[:10])
	count := int(data[8])<<8 | int(data[9])

	pos := 10
	for slot := 1; slot < count; slot++ {
		if pos >= len(data) {
			return whole()
		}
		tag := data[pos]
		u8(tag)
		pos++
		var n int
		switch classfile.ConstTag(tag) {
		case classfile.TagUtf8:
			if pos+2 > len(data) {
				return whole()
			}
			n = int(data[pos])<<8 | int(data[pos+1])
			if pos+2+n > len(data) {
				return whole()
			}
			if string(data[pos+2:pos+2+n]) == selfName {
				u8(0xFF) // masked: the self-name marker
			} else {
				raw(data[pos : pos+2+n])
			}
			pos += 2 + n
			continue
		case classfile.TagInteger, classfile.TagFloat:
			n = 4
		case classfile.TagLong, classfile.TagDouble:
			n = 8
			slot++ // wide constants take two pool slots
		case classfile.TagClass, classfile.TagString, classfile.TagMethodType:
			n = 2
		case classfile.TagFieldref, classfile.TagMethodref,
			classfile.TagInterfaceMethodref, classfile.TagNameAndType,
			classfile.TagInvokeDynamic:
			n = 4
		case classfile.TagMethodHandle:
			n = 3
		default:
			return whole()
		}
		if pos+n > len(data) {
			return whole()
		}
		raw(data[pos : pos+n])
		pos += n
	}

	// Everything after the pool is hashed verbatim.
	raw(data[pos:])
	return h
}

// utf8Bits packs the validity properties the loader branches on:
// bit 1 a valid field descriptor, 2 a valid method descriptor, 4 a
// valid class name, 8 the "[" prefix, 16 a valid void-returning method
// descriptor. The first byte decides which scans can succeed, so each
// string is scanned once per property that can hold.
func utf8Bits(s string) byte {
	if s == "" {
		return 0
	}
	var b byte
	switch s[0] {
	case '[':
		// An array name is a valid class name exactly when it is a
		// valid field descriptor; no method descriptor starts with '['.
		if descriptor.ValidField(s) {
			return 8 | 4 | 1
		}
		return 8
	case '(':
		// Only method descriptors start with '('; a field descriptor
		// never does.
		if _, ret, ok := descriptor.MethodSlots(s); ok {
			b |= 2
			if ret == 0 { // void return
				b |= 16
			}
		}
	default:
		if descriptor.ValidField(s) {
			b |= 1
		}
	}
	if descriptor.ValidClassName(s) {
		b |= 4
	}
	return b
}

// specialNameID distinguishes the literal strings the loader compares
// names and descriptors against.
func specialNameID(s string) byte {
	switch s {
	case "java/lang/Object":
		return 1
	case "<init>":
		return 2
	case "<clinit>":
		return 3
	case "main":
		return 4
	case "()V":
		return 5
	case "([Ljava/lang/String;)V":
		return 6
	}
	return 0
}
