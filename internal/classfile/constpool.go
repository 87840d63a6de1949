// Package classfile reads and writes JVM classfiles (JVMS §4): the
// 0xCAFEBABE container with its constant pool, field/method tables and
// attributes. The model is fully mutable so that mutation operators can
// rewrite any part of a class and re-serialise it, including classes
// that violate semantic constraints (that is the point of a fuzzer).
package classfile

import (
	"fmt"
	"math"

	"repro/internal/arena"
)

// ConstTag identifies a constant pool entry kind (JVMS Table 4.4-A).
type ConstTag byte

// Constant pool tags.
const (
	TagUtf8               ConstTag = 1
	TagInteger            ConstTag = 3
	TagFloat              ConstTag = 4
	TagLong               ConstTag = 5
	TagDouble             ConstTag = 6
	TagClass              ConstTag = 7
	TagString             ConstTag = 8
	TagFieldref           ConstTag = 9
	TagMethodref          ConstTag = 10
	TagInterfaceMethodref ConstTag = 11
	TagNameAndType        ConstTag = 12
	TagMethodHandle       ConstTag = 15
	TagMethodType         ConstTag = 16
	TagInvokeDynamic      ConstTag = 18
)

// String returns the JVMS name of the tag.
func (t ConstTag) String() string {
	switch t {
	case TagUtf8:
		return "Utf8"
	case TagInteger:
		return "Integer"
	case TagFloat:
		return "Float"
	case TagLong:
		return "Long"
	case TagDouble:
		return "Double"
	case TagClass:
		return "Class"
	case TagString:
		return "String"
	case TagFieldref:
		return "Fieldref"
	case TagMethodref:
		return "Methodref"
	case TagInterfaceMethodref:
		return "InterfaceMethodref"
	case TagNameAndType:
		return "NameAndType"
	case TagMethodHandle:
		return "MethodHandle"
	case TagMethodType:
		return "MethodType"
	case TagInvokeDynamic:
		return "InvokeDynamic"
	}
	return fmt.Sprintf("Tag(%d)", byte(t))
}

// Wide reports whether the tag occupies two constant pool slots
// (long and double, JVMS §4.4.5).
func (t ConstTag) Wide() bool { return t == TagLong || t == TagDouble }

// Constant is one constant pool entry. Fields are used according to Tag:
//
//	Utf8                -> Str
//	Integer             -> Int
//	Float               -> Float
//	Long                -> Long
//	Double              -> Double
//	Class               -> Ref1 (name_index: Utf8)
//	String              -> Ref1 (string_index: Utf8)
//	Fieldref/Methodref/
//	InterfaceMethodref  -> Ref1 (class_index), Ref2 (name_and_type_index)
//	NameAndType         -> Ref1 (name_index), Ref2 (descriptor_index)
//	MethodHandle        -> Kind (reference_kind), Ref1 (reference_index)
//	MethodType          -> Ref1 (descriptor_index)
//	InvokeDynamic       -> Ref1 (bootstrap_method_attr_index), Ref2 (name_and_type_index)
type Constant struct {
	Tag    ConstTag
	Str    string
	Int    int32
	Float  float32
	Long   int64
	Double float64
	Ref1   uint16
	Ref2   uint16
	Kind   byte
}

// ConstPool is the constant pool: entry 0 is unused (nil), and the slot
// after a long/double entry is nil (JVMS quirk preserved faithfully so
// indices round-trip).
type ConstPool struct {
	Entries []*Constant

	// arena chunk-allocates entries built through the Add*/parse paths
	// (one heap object per chunk instead of per constant); handed-out
	// pointers stay valid until Reset.
	arena arena.Arena[Constant]
}

// alloc places c in the pool's arena and returns a stable pointer.
func (cp *ConstPool) alloc(c Constant) *Constant { return cp.arena.Put(c) }

// Reset empties the pool to the reserved slot 0 for reuse, keeping the
// capacity of its entry table and constant arena. Every *Constant the
// pool handed out before — and so every File built on it — is invalid
// afterwards.
func (cp *ConstPool) Reset() {
	cp.Entries = append(cp.Entries[:0], nil)
	cp.arena.Rewind()
}

// NewConstPool returns a pool containing only the reserved slot 0.
func NewConstPool() *ConstPool {
	return &ConstPool{Entries: []*Constant{nil}}
}

// Count returns the constant_pool_count value (len of entries).
func (cp *ConstPool) Count() int { return len(cp.Entries) }

// Valid reports whether idx addresses a real (non-nil) entry.
func (cp *ConstPool) Valid(idx uint16) bool {
	return int(idx) > 0 && int(idx) < len(cp.Entries) && cp.Entries[idx] != nil
}

// Get returns the entry at idx, or nil if out of range/unused.
func (cp *ConstPool) Get(idx uint16) *Constant {
	if !cp.Valid(idx) {
		return nil
	}
	return cp.Entries[idx]
}

// Utf8 returns the string value of a Utf8 entry, or "" and false.
func (cp *ConstPool) Utf8(idx uint16) (string, bool) {
	c := cp.Get(idx)
	if c == nil || c.Tag != TagUtf8 {
		return "", false
	}
	return c.Str, true
}

// ClassName resolves a Class entry to its internal name.
func (cp *ConstPool) ClassName(idx uint16) (string, bool) {
	c := cp.Get(idx)
	if c == nil || c.Tag != TagClass {
		return "", false
	}
	return cp.Utf8(c.Ref1)
}

// NameAndType resolves a NameAndType entry to (name, descriptor).
func (cp *ConstPool) NameAndType(idx uint16) (name, desc string, ok bool) {
	c := cp.Get(idx)
	if c == nil || c.Tag != TagNameAndType {
		return "", "", false
	}
	n, ok1 := cp.Utf8(c.Ref1)
	d, ok2 := cp.Utf8(c.Ref2)
	return n, d, ok1 && ok2
}

// MemberRef resolves a Fieldref/Methodref/InterfaceMethodref entry into
// (class, name, descriptor).
func (cp *ConstPool) MemberRef(idx uint16) (class, name, desc string, ok bool) {
	c := cp.Get(idx)
	if c == nil || (c.Tag != TagFieldref && c.Tag != TagMethodref && c.Tag != TagInterfaceMethodref) {
		return "", "", "", false
	}
	cls, ok1 := cp.ClassName(c.Ref1)
	n, d, ok2 := cp.NameAndType(c.Ref2)
	return cls, n, d, ok1 && ok2
}

func (cp *ConstPool) add(c *Constant) uint16 {
	idx := uint16(len(cp.Entries))
	cp.Entries = append(cp.Entries, c)
	if c.Tag.Wide() {
		cp.Entries = append(cp.Entries, nil)
	}
	return idx
}

// AddUtf8 interns a Utf8 constant and returns its index.
func (cp *ConstPool) AddUtf8(s string) uint16 {
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagUtf8 && c.Str == s {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagUtf8, Str: s}))
}

// AddClass interns a Class constant for an internal name.
func (cp *ConstPool) AddClass(internalName string) uint16 {
	nameIdx := cp.AddUtf8(internalName)
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagClass && c.Ref1 == nameIdx {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagClass, Ref1: nameIdx}))
}

// AddString interns a String constant.
func (cp *ConstPool) AddString(s string) uint16 {
	strIdx := cp.AddUtf8(s)
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagString && c.Ref1 == strIdx {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagString, Ref1: strIdx}))
}

// AddInteger interns an Integer constant.
func (cp *ConstPool) AddInteger(v int32) uint16 {
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagInteger && c.Int == v {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagInteger, Int: v}))
}

// AddFloat interns a Float constant (NaNs compare by bit pattern).
func (cp *ConstPool) AddFloat(v float32) uint16 {
	bits := math.Float32bits(v)
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagFloat && math.Float32bits(c.Float) == bits {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagFloat, Float: v}))
}

// AddLong interns a Long constant.
func (cp *ConstPool) AddLong(v int64) uint16 {
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagLong && c.Long == v {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagLong, Long: v}))
}

// AddDouble interns a Double constant (NaNs compare by bit pattern).
func (cp *ConstPool) AddDouble(v float64) uint16 {
	bits := math.Float64bits(v)
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagDouble && math.Float64bits(c.Double) == bits {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagDouble, Double: v}))
}

// AddNameAndType interns a NameAndType constant.
func (cp *ConstPool) AddNameAndType(name, desc string) uint16 {
	n := cp.AddUtf8(name)
	d := cp.AddUtf8(desc)
	for i, c := range cp.Entries {
		if c != nil && c.Tag == TagNameAndType && c.Ref1 == n && c.Ref2 == d {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: TagNameAndType, Ref1: n, Ref2: d}))
}

func (cp *ConstPool) addMemberRef(tag ConstTag, class, name, desc string) uint16 {
	ci := cp.AddClass(class)
	nt := cp.AddNameAndType(name, desc)
	for i, c := range cp.Entries {
		if c != nil && c.Tag == tag && c.Ref1 == ci && c.Ref2 == nt {
			return uint16(i)
		}
	}
	return cp.add(cp.alloc(Constant{Tag: tag, Ref1: ci, Ref2: nt}))
}

// AddFieldref interns a Fieldref constant.
func (cp *ConstPool) AddFieldref(class, name, desc string) uint16 {
	return cp.addMemberRef(TagFieldref, class, name, desc)
}

// AddMethodref interns a Methodref constant.
func (cp *ConstPool) AddMethodref(class, name, desc string) uint16 {
	return cp.addMemberRef(TagMethodref, class, name, desc)
}

// AddInterfaceMethodref interns an InterfaceMethodref constant.
func (cp *ConstPool) AddInterfaceMethodref(class, name, desc string) uint16 {
	return cp.addMemberRef(TagInterfaceMethodref, class, name, desc)
}

// Describe renders a single entry for javap-style dumps.
func (cp *ConstPool) Describe(idx uint16) string {
	c := cp.Get(idx)
	if c == nil {
		return "<unused>"
	}
	switch c.Tag {
	case TagUtf8:
		return fmt.Sprintf("Utf8 %s", c.Str)
	case TagInteger:
		return fmt.Sprintf("Integer %d", c.Int)
	case TagFloat:
		return fmt.Sprintf("Float %g", c.Float)
	case TagLong:
		return fmt.Sprintf("Long %d", c.Long)
	case TagDouble:
		return fmt.Sprintf("Double %g", c.Double)
	case TagClass:
		n, _ := cp.Utf8(c.Ref1)
		return fmt.Sprintf("Class #%d // %s", c.Ref1, n)
	case TagString:
		s, _ := cp.Utf8(c.Ref1)
		return fmt.Sprintf("String #%d // %q", c.Ref1, s)
	case TagFieldref, TagMethodref, TagInterfaceMethodref:
		cl, n, d, _ := cp.MemberRef(idx)
		return fmt.Sprintf("%s #%d.#%d // %s.%s:%s", c.Tag, c.Ref1, c.Ref2, cl, n, d)
	case TagNameAndType:
		n, d, _ := cp.NameAndType(idx)
		return fmt.Sprintf("NameAndType #%d:#%d // %s:%s", c.Ref1, c.Ref2, n, d)
	case TagMethodHandle:
		return fmt.Sprintf("MethodHandle kind=%d #%d", c.Kind, c.Ref1)
	case TagMethodType:
		d, _ := cp.Utf8(c.Ref1)
		return fmt.Sprintf("MethodType #%d // %s", c.Ref1, d)
	case TagInvokeDynamic:
		n, d, _ := cp.NameAndType(c.Ref2)
		return fmt.Sprintf("InvokeDynamic bsm=%d #%d // %s:%s", c.Ref1, c.Ref2, n, d)
	}
	return c.Tag.String()
}

// Clone returns a deep copy of the pool.
func (cp *ConstPool) Clone() *ConstPool {
	out := &ConstPool{Entries: make([]*Constant, len(cp.Entries))}
	out.arena.Reserve(len(cp.Entries))
	for i, c := range cp.Entries {
		if c != nil {
			out.Entries[i] = out.alloc(*c)
		}
	}
	return out
}
