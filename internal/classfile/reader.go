package classfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/arena"
)

// reader is a bounds-checked big-endian cursor over the raw bytes.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &FormatError{Offset: r.pos, Reason: fmt.Sprintf(format, args...)}
	}
}

func (r *reader) u1() byte {
	if r.err != nil {
		return 0
	}
	if r.pos+1 > len(r.data) {
		r.fail("unexpected end of file reading u1")
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *reader) u2() uint16 {
	if r.err != nil {
		return 0
	}
	if r.pos+2 > len(r.data) {
		r.fail("unexpected end of file reading u2")
		return 0
	}
	v := binary.BigEndian.Uint16(r.data[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u4() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.data) {
		r.fail("unexpected end of file reading u4")
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

// remaining is the number of unread bytes.
func (r *reader) remaining() int { return len(r.data) - r.pos }

// bytes returns the next n bytes as a subslice of the input — no copy.
// Retained outputs (CodeAttr.Code, RawAttr.Data, ...) therefore alias
// the buffer handed to Parse; see Parse's aliasing contract.
func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail("unexpected end of file reading %d bytes", n)
		return nil
	}
	v := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

// parser holds one Parse call's File together with the arenas its
// attribute lists, Code attributes and line-number tables are carved
// from, so a parse costs a few chunk allocations rather than one per
// attribute (arena chunks start small and double).
type parser struct {
	f        File
	attrs    arena.Arena[Attribute]
	codes    arena.Arena[CodeAttr]
	lines    arena.Arena[LineNumberTableAttr]
	lineEnts arena.Arena[LineNumberEntry]
}

// Parse decodes a classfile from raw bytes. It enforces structural
// well-formedness (magic, pool shape, table lengths) but deliberately
// not semantic constraints — invalid flag combinations, dangling
// indices inside attributes, and illegal bytecode all parse fine;
// judging them is the JVM simulators' job.
//
// The returned File aliases data: byte-slice fields (CodeAttr.Code,
// RawAttr.Data, StackMapTableAttr.Raw, ...) are subslices of it, not
// copies. Callers that mutate or recycle data after parsing must stop
// using the File first (Clone deep-copies and breaks the aliasing).
// Pool strings are always independent copies.
//
// Parse never allocates out of proportion to len(data): every declared
// count is clamped, before anything is sized from it, to what the
// remaining bytes could possibly encode.
func Parse(data []byte) (*File, error) {
	r := &reader{data: data}
	if magic := r.u4(); r.err == nil && magic != Magic {
		return nil, &FormatError{Offset: 0, Reason: fmt.Sprintf("bad magic 0x%08X", magic)}
	}
	p := new(parser)
	f := &p.f
	f.Pool = new(ConstPool)
	f.Minor = r.u2()
	f.Major = r.u2()

	// Constant pool. Every entry takes at least three bytes (tag plus a
	// u2), so the remaining input bounds how many slots can be real.
	count := int(r.u2())
	if r.err != nil {
		return nil, r.err
	}
	if count == 0 {
		return nil, &FormatError{Offset: r.pos, Reason: "constant_pool_count is zero"}
	}
	pool := f.Pool
	n := min(count, 1+r.remaining()/3)
	pool.Entries = make([]*Constant, 1, n)
	pool.arena.Reserve(n - 1)
	for len(pool.Entries) < count {
		tag := ConstTag(r.u1())
		if r.err != nil {
			return nil, r.err
		}
		c := pool.alloc(Constant{Tag: tag})
		switch tag {
		case TagUtf8:
			n := int(r.u2())
			b := r.bytes(n)
			if r.err != nil {
				return nil, r.err
			}
			s, err := decodeModifiedUTF8(b)
			if err != nil {
				return nil, &FormatError{Offset: r.pos, Reason: err.Error()}
			}
			c.Str = s
		case TagInteger:
			c.Int = int32(r.u4())
		case TagFloat:
			c.Float = math.Float32frombits(r.u4())
		case TagLong:
			hi := uint64(r.u4())
			lo := uint64(r.u4())
			c.Long = int64(hi<<32 | lo)
		case TagDouble:
			hi := uint64(r.u4())
			lo := uint64(r.u4())
			c.Double = math.Float64frombits(hi<<32 | lo)
		case TagClass, TagString, TagMethodType:
			c.Ref1 = r.u2()
		case TagFieldref, TagMethodref, TagInterfaceMethodref, TagNameAndType, TagInvokeDynamic:
			c.Ref1 = r.u2()
			c.Ref2 = r.u2()
		case TagMethodHandle:
			c.Kind = r.u1()
			c.Ref1 = r.u2()
		default:
			return nil, &FormatError{Offset: r.pos, Reason: fmt.Sprintf("unknown constant pool tag %d", tag)}
		}
		if r.err != nil {
			return nil, r.err
		}
		pool.Entries = append(pool.Entries, c)
		if tag.Wide() {
			if len(pool.Entries) >= count {
				return nil, &FormatError{Offset: r.pos, Reason: "wide constant overflows constant_pool_count"}
			}
			pool.Entries = append(pool.Entries, nil)
		}
	}

	f.AccessFlags = Flags(r.u2())
	f.ThisClass = r.u2()
	f.SuperClass = r.u2()

	nIfaces := int(r.u2())
	if r.err != nil {
		return nil, r.err
	}
	f.Interfaces = make([]uint16, 0, min(nIfaces, r.remaining()/2))
	for i := 0; i < nIfaces && r.err == nil; i++ {
		f.Interfaces = append(f.Interfaces, r.u2())
	}

	var err error
	if f.Fields, err = p.members(r); err != nil {
		return nil, err
	}
	if f.Methods, err = p.members(r); err != nil {
		return nil, err
	}
	if f.Attributes, err = p.attributes(r); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, &FormatError{Offset: r.pos, Reason: fmt.Sprintf("%d trailing bytes after class body", len(r.data)-r.pos)}
	}
	return f, nil
}

// members reads a field or method table. A member takes at least eight
// bytes.
func (p *parser) members(r *reader) ([]*Member, error) {
	n := int(r.u2())
	if r.err != nil {
		return nil, r.err
	}
	c := min(n, r.remaining()/8)
	out := make([]*Member, 0, c)
	p.f.memberArena.Reserve(c)
	for i := 0; i < n; i++ {
		m := p.f.allocMember(Member{
			AccessFlags: Flags(r.u2()),
			NameIndex:   r.u2(),
			DescIndex:   r.u2(),
		})
		attrs, err := p.attributes(r)
		if err != nil {
			return nil, err
		}
		m.Attributes = attrs
		out = append(out, m)
	}
	return out, r.err
}

// attributes reads an attribute table. An attribute takes at least six
// bytes (name index and length).
func (p *parser) attributes(r *reader) ([]Attribute, error) {
	n := int(r.u2())
	if r.err != nil {
		return nil, r.err
	}
	attrs := p.attrs.Run(min(n, r.remaining()/6))
	for i := 0; i < n; i++ {
		nameIdx := r.u2()
		length := int(r.u4())
		body := r.bytes(length)
		if r.err != nil {
			return nil, r.err
		}
		name, _ := p.f.Pool.Utf8(nameIdx)
		a, err := p.attribute(name, body)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

// attribute decodes one attribute body. Every table sized from a
// declared count is clamped to what the body's remaining bytes can
// hold.
func (p *parser) attribute(name string, body []byte) (Attribute, error) {
	br := &reader{data: body}
	switch name {
	case AttrCode:
		c := p.codes.Put(CodeAttr{})
		c.MaxStack = br.u2()
		c.MaxLocals = br.u2()
		codeLen := int(br.u4())
		c.Code = br.bytes(codeLen)
		nh := int(br.u2())
		if br.err != nil {
			return nil, br.err
		}
		c.Handlers = make([]ExceptionHandler, 0, min(nh, br.remaining()/8))
		for i := 0; i < nh && br.err == nil; i++ {
			c.Handlers = append(c.Handlers, ExceptionHandler{
				StartPC:   br.u2(),
				EndPC:     br.u2(),
				HandlerPC: br.u2(),
				CatchType: br.u2(),
			})
		}
		inner, err := p.attributes(br)
		if err != nil {
			return nil, err
		}
		c.Attributes = inner
		if br.err != nil {
			return nil, br.err
		}
		return c, nil
	case AttrExceptions:
		n := int(br.u2())
		e := &ExceptionsAttr{Classes: make([]uint16, 0, min(n, br.remaining()/2))}
		for i := 0; i < n && br.err == nil; i++ {
			e.Classes = append(e.Classes, br.u2())
		}
		return e, br.err
	case AttrConstantValue:
		a := &ConstantValueAttr{ValueIndex: br.u2()}
		return a, br.err
	case AttrSourceFile:
		a := &SourceFileAttr{NameIndex: br.u2()}
		return a, br.err
	case AttrSignature:
		a := &SignatureAttr{SigIndex: br.u2()}
		return a, br.err
	case AttrInnerClasses:
		n := int(br.u2())
		a := &InnerClassesAttr{Entries: make([]InnerClassEntry, 0, min(n, br.remaining()/8))}
		for i := 0; i < n && br.err == nil; i++ {
			a.Entries = append(a.Entries, InnerClassEntry{
				InnerClass: br.u2(),
				OuterClass: br.u2(),
				InnerName:  br.u2(),
				Flags:      Flags(br.u2()),
			})
		}
		return a, br.err
	case AttrLineNumberTable:
		n := int(br.u2())
		a := p.lines.Put(LineNumberTableAttr{Entries: p.lineEnts.Run(min(n, br.remaining()/4))})
		for i := 0; i < n && br.err == nil; i++ {
			a.Entries = append(a.Entries, LineNumberEntry{StartPC: br.u2(), Line: br.u2()})
		}
		return a, br.err
	case AttrLocalVariableTable:
		n := int(br.u2())
		a := &LocalVariableTableAttr{Entries: make([]LocalVariableEntry, 0, min(n, br.remaining()/10))}
		for i := 0; i < n && br.err == nil; i++ {
			a.Entries = append(a.Entries, LocalVariableEntry{
				StartPC:   br.u2(),
				Length:    br.u2(),
				NameIndex: br.u2(),
				DescIndex: br.u2(),
				Slot:      br.u2(),
			})
		}
		return a, br.err
	case AttrStackMapTable:
		return &StackMapTableAttr{Raw: append([]byte(nil), body...)}, nil
	case AttrRuntimeVisibleAnnotations:
		return decodeAnnotationsAttr(body, true)
	case AttrRuntimeInvisibleAnnotations:
		return decodeAnnotationsAttr(body, false)
	case AttrBootstrapMethods:
		return decodeBootstrapMethods(body)
	case AttrSynthetic:
		if len(body) != 0 {
			return nil, &FormatError{Reason: "Synthetic attribute with nonzero length"}
		}
		return &SyntheticAttr{}, nil
	case AttrDeprecated:
		if len(body) != 0 {
			return nil, &FormatError{Reason: "Deprecated attribute with nonzero length"}
		}
		return &DeprecatedAttr{}, nil
	default:
		return &RawAttr{Name: name, Data: append([]byte(nil), body...)}, nil
	}
}

// utf8Intern caches decoded modified-UTF-8 strings by their raw byte
// encoding. Fuzzing campaigns parse thousands of mutants that share the
// same small vocabulary of names and descriptors, so warm decodes are a
// lock-guarded map hit with zero allocations. Bounded by wholesale
// reset; entries are pure functions of their keys, so eviction only
// costs a redundant decode.
var utf8Intern = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

const utf8InternMax = 1 << 13

// decodeModifiedUTF8 decodes the JVM's modified UTF-8 (JVMS §4.4.7):
// U+0000 as 0xC0 0x80, no 4-byte forms, surrogate pairs as two 3-byte
// sequences. We map it to a Go string preserving code units.
func decodeModifiedUTF8(b []byte) (string, error) {
	utf8Intern.RLock()
	s, ok := utf8Intern.m[string(b)] // no alloc: map lookup by converted key
	utf8Intern.RUnlock()
	if ok {
		return s, nil
	}
	s, err := decodeModifiedUTF8Slow(b)
	if err != nil {
		return "", err
	}
	utf8Intern.Lock()
	if len(utf8Intern.m) >= utf8InternMax {
		utf8Intern.m = make(map[string]string)
	}
	utf8Intern.m[string(b)] = s
	utf8Intern.Unlock()
	return s, nil
}

func decodeModifiedUTF8Slow(b []byte) (string, error) {
	out := make([]rune, 0, len(b))
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c&0x80 == 0:
			if c == 0 {
				return "", fmt.Errorf("modified UTF-8: embedded NUL byte")
			}
			out = append(out, rune(c))
			i++
		case c&0xE0 == 0xC0:
			if i+1 >= len(b) || b[i+1]&0xC0 != 0x80 {
				return "", fmt.Errorf("modified UTF-8: truncated 2-byte sequence")
			}
			out = append(out, rune(c&0x1F)<<6|rune(b[i+1]&0x3F))
			i += 2
		case c&0xF0 == 0xE0:
			if i+2 >= len(b) || b[i+1]&0xC0 != 0x80 || b[i+2]&0xC0 != 0x80 {
				return "", fmt.Errorf("modified UTF-8: truncated 3-byte sequence")
			}
			out = append(out, rune(c&0x0F)<<12|rune(b[i+1]&0x3F)<<6|rune(b[i+2]&0x3F))
			i += 3
		default:
			return "", fmt.Errorf("modified UTF-8: invalid lead byte 0x%02x", c)
		}
	}
	return string(out), nil
}

// asciiNoNUL reports whether s consists only of bytes in [0x01, 0x7F],
// i.e. strings whose modified-UTF-8 encoding is the identity.
func asciiNoNUL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 || s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// encodeModifiedUTF8 is the inverse of decodeModifiedUTF8.
func encodeModifiedUTF8(s string) []byte {
	out := make([]byte, 0, len(s))
	for _, r := range s {
		switch {
		case r == 0:
			out = append(out, 0xC0, 0x80)
		case r < 0x80:
			out = append(out, byte(r))
		case r < 0x800:
			out = append(out, 0xC0|byte(r>>6), 0x80|byte(r&0x3F))
		case r < 0x10000:
			out = append(out, 0xE0|byte(r>>12), 0x80|byte(r>>6&0x3F), 0x80|byte(r&0x3F))
		default:
			// Encode as a surrogate pair of 3-byte sequences, as the JVM does.
			r -= 0x10000
			hi := 0xD800 + (r >> 10)
			lo := 0xDC00 + (r & 0x3FF)
			out = append(out, 0xE0|byte(hi>>12), 0x80|byte(hi>>6&0x3F), 0x80|byte(hi&0x3F))
			out = append(out, 0xE0|byte(lo>>12), 0x80|byte(lo>>6&0x3F), 0x80|byte(lo&0x3F))
		}
	}
	return out
}
