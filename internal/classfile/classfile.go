package classfile

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/arena"
)

// Magic is the classfile magic number.
const Magic = 0xCAFEBABE

// Well-known major version numbers.
const (
	MajorJava5 = 49
	MajorJava6 = 50
	MajorJava7 = 51
	MajorJava8 = 52
	MajorJava9 = 53
)

// File is a parsed classfile: the this_class structure plus its constant
// pool, member tables and attributes. All indices refer into Pool.
type File struct {
	Minor uint16
	Major uint16
	Pool  *ConstPool

	AccessFlags Flags
	ThisClass   uint16 // Class entry
	SuperClass  uint16 // Class entry; 0 only for java/lang/Object
	Interfaces  []uint16

	Fields     []*Member
	Methods    []*Member
	Attributes []Attribute

	// memberArena chunk-allocates Members built through the
	// AddField/AddMethod/Clone/parse paths (one heap object per chunk
	// instead of per member — member tables dominate the builder's
	// allocation profile); handed-out pointers stay valid until Reset.
	memberArena arena.Arena[Member]
}

// allocMember places m in the file's arena and returns a stable pointer.
func (f *File) allocMember(m Member) *Member { return f.memberArena.Put(m) }

// Reset empties f for reuse — zero header, a pool holding only slot 0,
// no interfaces, members or attributes — while keeping the capacity it
// has grown: the pool's entry table and constant arena, the interface,
// member and attribute tables, and the member arena. Reset resets
// f.Pool in place. Everything obtained from f before — members,
// constants, attribute lists — is invalid afterwards. Reusing one File
// this way is what lets a long-lived lowering context build class after
// class without allocating a fresh pool for each.
func (f *File) Reset() {
	pool := f.Pool
	if pool == nil {
		pool = NewConstPool()
	} else {
		pool.Reset()
	}
	f.memberArena.Rewind()
	*f = File{
		Pool:        pool,
		Interfaces:  f.Interfaces[:0],
		Fields:      f.Fields[:0],
		Methods:     f.Methods[:0],
		Attributes:  f.Attributes[:0],
		memberArena: f.memberArena,
	}
}

// Member is a field_info or method_info structure.
type Member struct {
	AccessFlags Flags
	NameIndex   uint16
	DescIndex   uint16
	Attributes  []Attribute
}

// New creates an empty public class with the standard version-51 header
// and a superclass of java/lang/Object.
func New(internalName string) *File {
	f := &File{
		Minor: 0,
		Major: MajorJava7,
		Pool:  NewConstPool(),
	}
	f.AccessFlags = AccPublic | AccSuper
	f.ThisClass = f.Pool.AddClass(internalName)
	f.SuperClass = f.Pool.AddClass("java/lang/Object")
	return f
}

// Name returns the internal name of this class, or "" when the
// this_class index is dangling.
func (f *File) Name() string {
	n, _ := f.Pool.ClassName(f.ThisClass)
	return n
}

// SuperName returns the internal name of the superclass, "" for none.
func (f *File) SuperName() string {
	if f.SuperClass == 0 {
		return ""
	}
	n, _ := f.Pool.ClassName(f.SuperClass)
	return n
}

// InterfaceNames resolves the interface table to internal names;
// unresolvable entries appear as "".
func (f *File) InterfaceNames() []string {
	out := make([]string, len(f.Interfaces))
	for i, idx := range f.Interfaces {
		out[i], _ = f.Pool.ClassName(idx)
	}
	return out
}

// IsInterface reports whether ACC_INTERFACE is set.
func (f *File) IsInterface() bool { return f.AccessFlags.Has(AccInterface) }

// Name returns the member's name via the pool.
func (m *Member) Name(cp *ConstPool) string {
	n, _ := cp.Utf8(m.NameIndex)
	return n
}

// Descriptor returns the member's descriptor via the pool.
func (m *Member) Descriptor(cp *ConstPool) string {
	d, _ := cp.Utf8(m.DescIndex)
	return d
}

// Code returns the member's Code attribute, or nil.
func (m *Member) Code() *CodeAttr {
	for _, a := range m.Attributes {
		if c, ok := a.(*CodeAttr); ok {
			return c
		}
	}
	return nil
}

// Exceptions returns the member's Exceptions attribute, or nil.
func (m *Member) Exceptions() *ExceptionsAttr {
	for _, a := range m.Attributes {
		if e, ok := a.(*ExceptionsAttr); ok {
			return e
		}
	}
	return nil
}

// RemoveAttribute deletes all attributes with the given name.
func (m *Member) RemoveAttribute(cp *ConstPool, name string) {
	out := m.Attributes[:0]
	for _, a := range m.Attributes {
		if a.AttrName() != name {
			out = append(out, a)
		}
	}
	m.Attributes = out
}

// FindMethod returns the first method with the given name (any
// descriptor), or nil.
func (f *File) FindMethod(name string) *Member {
	for _, m := range f.Methods {
		if m.Name(f.Pool) == name {
			return m
		}
	}
	return nil
}

// FindMethodExact returns the method with the given name and descriptor,
// or nil.
func (f *File) FindMethodExact(name, desc string) *Member {
	for _, m := range f.Methods {
		if m.Name(f.Pool) == name && m.Descriptor(f.Pool) == desc {
			return m
		}
	}
	return nil
}

// FindField returns the first field with the given name, or nil.
func (f *File) FindField(name string) *Member {
	for _, fl := range f.Fields {
		if fl.Name(f.Pool) == name {
			return fl
		}
	}
	return nil
}

// SetSuper rewrites the superclass to the named class.
func (f *File) SetSuper(internalName string) {
	f.SuperClass = f.Pool.AddClass(internalName)
}

// AddInterface appends an implemented interface by name.
func (f *File) AddInterface(internalName string) {
	f.Interfaces = append(f.Interfaces, f.Pool.AddClass(internalName))
}

// AddField appends a new field and returns it.
func (f *File) AddField(flags Flags, name, desc string) *Member {
	m := f.allocMember(Member{
		AccessFlags: flags,
		NameIndex:   f.Pool.AddUtf8(name),
		DescIndex:   f.Pool.AddUtf8(desc),
	})
	f.Fields = append(f.Fields, m)
	return m
}

// AddMethod appends a new method (without a Code attribute) and returns it.
func (f *File) AddMethod(flags Flags, name, desc string) *Member {
	m := f.allocMember(Member{
		AccessFlags: flags,
		NameIndex:   f.Pool.AddUtf8(name),
		DescIndex:   f.Pool.AddUtf8(desc),
	})
	f.Methods = append(f.Methods, m)
	return m
}

// Clone returns a deep copy of the classfile so a mutation can be
// applied without touching the original.
func (f *File) Clone() *File {
	out := &File{
		Minor:       f.Minor,
		Major:       f.Major,
		Pool:        f.Pool.Clone(),
		AccessFlags: f.AccessFlags,
		ThisClass:   f.ThisClass,
		SuperClass:  f.SuperClass,
		Interfaces:  append([]uint16(nil), f.Interfaces...),
	}
	out.memberArena.Reserve(len(f.Fields) + len(f.Methods))
	out.Fields = out.cloneMembers(f.Fields)
	out.Methods = out.cloneMembers(f.Methods)
	out.Attributes = cloneAttrs(f.Attributes)
	return out
}

func (f *File) cloneMembers(ms []*Member) []*Member {
	out := make([]*Member, len(ms))
	for i, m := range ms {
		out[i] = f.allocMember(Member{
			AccessFlags: m.AccessFlags,
			NameIndex:   m.NameIndex,
			DescIndex:   m.DescIndex,
			Attributes:  cloneAttrs(m.Attributes),
		})
	}
	return out
}

func cloneAttrs(as []Attribute) []Attribute {
	out := make([]Attribute, len(as))
	for i, a := range as {
		out[i] = a.CloneAttr()
	}
	return out
}

// Equal reports whether a and b hold the same classfile: header, pool
// entries, interface and member tables, and attributes, compared by
// value. Nil and empty slices compare equal, floating-point constants
// compare by their bits, and arena bookkeeping is ignored, so a File
// built in memory and the File Parse reads back from its written bytes
// compare equal exactly when they describe the same class.
func Equal(a, b *File) bool {
	return a.Minor == b.Minor && a.Major == b.Major && a.AccessFlags == b.AccessFlags &&
		a.ThisClass == b.ThisClass && a.SuperClass == b.SuperClass &&
		equalValue(reflect.ValueOf(a.Pool.Entries), reflect.ValueOf(b.Pool.Entries)) &&
		equalValue(reflect.ValueOf(a.Interfaces), reflect.ValueOf(b.Interfaces)) &&
		equalValue(reflect.ValueOf(a.Fields), reflect.ValueOf(b.Fields)) &&
		equalValue(reflect.ValueOf(a.Methods), reflect.ValueOf(b.Methods)) &&
		equalValue(reflect.ValueOf(a.Attributes), reflect.ValueOf(b.Attributes))
}

// equalValue is Equal's structural comparison of two values of one
// type reachable from a File.
func equalValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return equalValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("classfile: Equal reached an unsupported " + a.Kind().String())
}

// FormatError reports a structurally malformed classfile during parsing.
type FormatError struct {
	Offset int
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("classfile: format error at offset %d: %s", e.Offset, e.Reason)
}
