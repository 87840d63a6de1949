package classfile

import (
	"encoding/binary"
	"fmt"
	"math"
)

// writer is a growing big-endian buffer.
type writer struct {
	buf []byte
}

func (w *writer) u1(v byte)    { w.buf = append(w.buf, v) }
func (w *writer) u2(v uint16)  { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u4(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) raw(b []byte) { w.buf = append(w.buf, b...) }

// count writes a table length as a u2, failing for a table the format
// cannot express rather than writing a truncated count.
func (w *writer) count(n int, what string) error {
	if n > 0xFFFF {
		return fmt.Errorf("classfile: too many %s (%d)", what, n)
	}
	w.u2(uint16(n))
	return nil
}

// Bytes serialises the classfile back into its binary form. Serialising
// never validates semantics; a File holding illegal constructs produces
// exactly the illegal classfile the fuzzer wants. Errors are only
// returned for shapes the container format cannot express (e.g. more
// than 65535 methods).
func (f *File) Bytes() ([]byte, error) {
	return f.AppendBytes(make([]byte, 0, 1024))
}

// AppendBytes serialises the classfile into buf (appending from
// buf[len(buf):], reusing its capacity) and returns the extended slice.
// The output bytes are identical to Bytes; callers that recycle buffers
// across serialisations use this form to keep the hot path
// allocation-free once the buffer has grown to steady state.
//
// Writing brings f in step with its bytes: every attribute name is
// interned into the pool, and a Utf8 constant that modified UTF-8
// cannot carry verbatim (invalid UTF-8, a rune beyond the BMP) is
// replaced by the string a reader decodes from its bytes. Once written,
// f is Equal to Parse of the bytes — provided f holds no RawAttr under
// a name Parse decodes into a typed attribute — so a caller that built
// f can execute it in place of a parse.
func (f *File) AppendBytes(buf []byte) ([]byte, error) {
	// Intern every attribute name before the pool is serialised, so the
	// name indices written later point into the written pool.
	internAttrNames(f.Pool, f.Attributes)
	for _, m := range f.Fields {
		internAttrNames(f.Pool, m.Attributes)
	}
	for _, m := range f.Methods {
		internAttrNames(f.Pool, m.Attributes)
	}

	w := &writer{buf: buf}
	w.u4(Magic)
	w.u2(f.Minor)
	w.u2(f.Major)

	if f.Pool.Count() > 0xFFFF {
		return nil, fmt.Errorf("classfile: constant pool too large (%d entries)", f.Pool.Count())
	}
	w.u2(uint16(f.Pool.Count()))
	for i := 1; i < len(f.Pool.Entries); i++ {
		c := f.Pool.Entries[i]
		if c == nil {
			continue // trailing slot of a wide constant
		}
		w.u1(byte(c.Tag))
		switch c.Tag {
		case TagUtf8:
			if asciiNoNUL(c.Str) {
				// Fast path: plain ASCII without NUL encodes to its own
				// bytes; append the string directly, no scratch slice.
				if len(c.Str) > 0xFFFF {
					return nil, fmt.Errorf("classfile: Utf8 constant longer than 65535 bytes")
				}
				w.u2(uint16(len(c.Str)))
				w.buf = append(w.buf, c.Str...)
				break
			}
			b := encodeModifiedUTF8(c.Str)
			if len(b) > 0xFFFF {
				return nil, fmt.Errorf("classfile: Utf8 constant longer than 65535 bytes")
			}
			w.u2(uint16(len(b)))
			w.raw(b)
			// The encoder emits well-formed modified UTF-8, so decoding
			// cannot fail; assign only on change, so writing a parsed
			// File never stores.
			if s, _ := decodeModifiedUTF8Slow(b); s != c.Str {
				c.Str = s
			}
		case TagInteger:
			w.u4(uint32(c.Int))
		case TagFloat:
			w.u4(math.Float32bits(c.Float))
		case TagLong:
			w.u4(uint32(uint64(c.Long) >> 32))
			w.u4(uint32(uint64(c.Long)))
		case TagDouble:
			bits := math.Float64bits(c.Double)
			w.u4(uint32(bits >> 32))
			w.u4(uint32(bits))
		case TagClass, TagString, TagMethodType:
			w.u2(c.Ref1)
		case TagFieldref, TagMethodref, TagInterfaceMethodref, TagNameAndType, TagInvokeDynamic:
			w.u2(c.Ref1)
			w.u2(c.Ref2)
		case TagMethodHandle:
			w.u1(c.Kind)
			w.u2(c.Ref1)
		default:
			return nil, fmt.Errorf("classfile: cannot serialise constant tag %d", c.Tag)
		}
	}

	w.u2(uint16(f.AccessFlags))
	w.u2(f.ThisClass)
	w.u2(f.SuperClass)

	if err := w.count(len(f.Interfaces), "interfaces"); err != nil {
		return nil, err
	}
	for _, idx := range f.Interfaces {
		w.u2(idx)
	}

	if err := writeMembers(w, f.Pool, f.Fields); err != nil {
		return nil, err
	}
	if err := writeMembers(w, f.Pool, f.Methods); err != nil {
		return nil, err
	}
	if err := writeAttributes(w, f.Pool, f.Attributes); err != nil {
		return nil, err
	}
	return w.buf, nil
}

func internAttrNames(cp *ConstPool, attrs []Attribute) {
	for _, a := range attrs {
		cp.AddUtf8(a.AttrName())
		if c, ok := a.(*CodeAttr); ok {
			internAttrNames(cp, c.Attributes)
		}
	}
}

func writeMembers(w *writer, cp *ConstPool, ms []*Member) error {
	if err := w.count(len(ms), "members"); err != nil {
		return err
	}
	for _, m := range ms {
		w.u2(uint16(m.AccessFlags))
		w.u2(m.NameIndex)
		w.u2(m.DescIndex)
		if err := writeAttributes(w, cp, m.Attributes); err != nil {
			return err
		}
	}
	return nil
}

func writeAttributes(w *writer, cp *ConstPool, attrs []Attribute) error {
	if err := w.count(len(attrs), "attributes"); err != nil {
		return err
	}
	for _, a := range attrs {
		// Names were pre-interned before the pool was written, so this
		// lookup always hits an existing entry.
		nameIdx := cp.AddUtf8(a.AttrName())
		w.u2(nameIdx)
		// Reserve the attribute_length slot, encode the body straight
		// into the same buffer, then patch the length in place — no
		// per-attribute scratch writer.
		lenAt := len(w.buf)
		w.u4(0)
		if err := encodeAttribute(w, cp, a); err != nil {
			return err
		}
		binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
	}
	return nil
}

func encodeAttribute(w *writer, cp *ConstPool, a Attribute) error {
	switch at := a.(type) {
	case *CodeAttr:
		w.u2(at.MaxStack)
		w.u2(at.MaxLocals)
		w.u4(uint32(len(at.Code)))
		w.raw(at.Code)
		if err := w.count(len(at.Handlers), "exception handlers"); err != nil {
			return err
		}
		for _, h := range at.Handlers {
			w.u2(h.StartPC)
			w.u2(h.EndPC)
			w.u2(h.HandlerPC)
			w.u2(h.CatchType)
		}
		if err := writeAttributes(w, cp, at.Attributes); err != nil {
			return err
		}
	case *ExceptionsAttr:
		if err := w.count(len(at.Classes), "exception classes"); err != nil {
			return err
		}
		for _, c := range at.Classes {
			w.u2(c)
		}
	case *ConstantValueAttr:
		w.u2(at.ValueIndex)
	case *SourceFileAttr:
		w.u2(at.NameIndex)
	case *SignatureAttr:
		w.u2(at.SigIndex)
	case *InnerClassesAttr:
		if err := w.count(len(at.Entries), "inner classes"); err != nil {
			return err
		}
		for _, e := range at.Entries {
			w.u2(e.InnerClass)
			w.u2(e.OuterClass)
			w.u2(e.InnerName)
			w.u2(uint16(e.Flags))
		}
	case *LineNumberTableAttr:
		if err := w.count(len(at.Entries), "line numbers"); err != nil {
			return err
		}
		for _, e := range at.Entries {
			w.u2(e.StartPC)
			w.u2(e.Line)
		}
	case *LocalVariableTableAttr:
		if err := w.count(len(at.Entries), "local variables"); err != nil {
			return err
		}
		for _, e := range at.Entries {
			w.u2(e.StartPC)
			w.u2(e.Length)
			w.u2(e.NameIndex)
			w.u2(e.DescIndex)
			w.u2(e.Slot)
		}
	case *StackMapTableAttr:
		w.raw(at.Raw)
	case *AnnotationsAttr:
		encodeAnnotationsAttr(w, at)
	case *BootstrapMethodsAttr:
		encodeBootstrapMethods(w, at)
	case *SyntheticAttr, *DeprecatedAttr:
		// zero-length bodies
	case *RawAttr:
		w.raw(at.Data)
	default:
		return fmt.Errorf("classfile: cannot serialise attribute %T", a)
	}
	return nil
}
