// Package descriptor parses and manipulates JVM field and method
// descriptors (JVMS §4.3), the compact type grammar used throughout
// classfiles: B C D F I J S Z for primitives, Lname; for references,
// and [ prefixes for array dimensions.
package descriptor

import (
	"fmt"
	"strings"
)

// Type is one parsed descriptor component.
type Type struct {
	// Kind is the base kind character: one of 'B','C','D','F','I','J',
	// 'S','Z','L','V'. Arrays keep the element kind here with Dims > 0.
	Kind byte
	// ClassName is the internal (slash-separated) class name when
	// Kind == 'L'.
	ClassName string
	// Dims is the number of array dimensions.
	Dims int
}

// Void is the V return type.
var Void = Type{Kind: 'V'}

// Primitive constructors for common types.
var (
	Int     = Type{Kind: 'I'}
	Long    = Type{Kind: 'J'}
	Float   = Type{Kind: 'F'}
	Double  = Type{Kind: 'D'}
	Boolean = Type{Kind: 'Z'}
	Byte    = Type{Kind: 'B'}
	Char    = Type{Kind: 'C'}
	Short   = Type{Kind: 'S'}
)

// Object returns the reference type for an internal class name.
func Object(internalName string) Type { return Type{Kind: 'L', ClassName: internalName} }

// Array returns t with dims added array dimensions.
func Array(t Type, dims int) Type {
	t.Dims += dims
	return t
}

// IsVoid reports whether t is the void pseudo-type.
func (t Type) IsVoid() bool { return t.Kind == 'V' && t.Dims == 0 }

// IsReference reports whether t is a class or array reference.
func (t Type) IsReference() bool { return t.Dims > 0 || t.Kind == 'L' }

// IsPrimitive reports whether t is a non-array primitive value type.
func (t Type) IsPrimitive() bool { return t.Dims == 0 && t.Kind != 'L' && t.Kind != 'V' }

// IsWide reports whether t occupies two stack/local slots.
func (t Type) IsWide() bool { return t.Dims == 0 && (t.Kind == 'J' || t.Kind == 'D') }

// Slots returns the number of operand-stack/local-variable slots the
// type occupies: 0 for void, 2 for long/double, otherwise 1.
func (t Type) Slots() int {
	if t.IsVoid() {
		return 0
	}
	if t.IsWide() {
		return 2
	}
	return 1
}

// EncodedLen is the byte length of t in descriptor syntax.
func (t Type) EncodedLen() int {
	n := t.Dims + 1
	if t.Kind == 'L' {
		n += len(t.ClassName) + 1
	}
	return n
}

// AppendTo appends t in descriptor syntax to b and returns the extended
// slice; String is its allocating form.
func (t Type) AppendTo(b []byte) []byte {
	for i := 0; i < t.Dims; i++ {
		b = append(b, '[')
	}
	if t.Kind == 'L' {
		b = append(b, 'L')
		b = append(b, t.ClassName...)
		b = append(b, ';')
	} else {
		b = append(b, t.Kind)
	}
	return b
}

// String renders t back into descriptor syntax.
func (t Type) String() string {
	return string(t.AppendTo(make([]byte, 0, t.EncodedLen())))
}

// Java renders t in Java-source style ("java.lang.String[]", "int").
func (t Type) Java() string {
	var base string
	switch t.Kind {
	case 'B':
		base = "byte"
	case 'C':
		base = "char"
	case 'D':
		base = "double"
	case 'F':
		base = "float"
	case 'I':
		base = "int"
	case 'J':
		base = "long"
	case 'S':
		base = "short"
	case 'Z':
		base = "boolean"
	case 'V':
		base = "void"
	case 'L':
		base = strings.ReplaceAll(t.ClassName, "/", ".")
	default:
		base = fmt.Sprintf("?%c", t.Kind)
	}
	return base + strings.Repeat("[]", t.Dims)
}

// Method is a parsed method descriptor.
type Method struct {
	Params []Type
	Return Type
}

// String renders m back into descriptor syntax.
func (m Method) String() string {
	n := 2 + m.Return.EncodedLen()
	for _, p := range m.Params {
		n += p.EncodedLen()
	}
	return string(m.AppendTo(make([]byte, 0, n)))
}

// AppendTo appends m in descriptor syntax to b and returns the extended
// slice; String is its allocating form.
func (m Method) AppendTo(b []byte) []byte {
	b = append(b, '(')
	for _, p := range m.Params {
		b = p.AppendTo(b)
	}
	b = append(b, ')')
	return m.Return.AppendTo(b)
}

// ParamSlots returns the total argument slot count (not counting the
// receiver).
func (m Method) ParamSlots() int {
	n := 0
	for _, p := range m.Params {
		n += p.Slots()
	}
	return n
}

// parseOne parses a single type starting at s[i], returning the type and
// the index just past it.
func parseOne(s string, i int) (Type, int, error) {
	dims := 0
	for i < len(s) && s[i] == '[' {
		dims++
		i++
		if dims > 255 {
			return Type{}, i, fmt.Errorf("descriptor: more than 255 array dimensions")
		}
	}
	if i >= len(s) {
		return Type{}, i, fmt.Errorf("descriptor: truncated after array prefix")
	}
	switch s[i] {
	case 'B', 'C', 'D', 'F', 'I', 'J', 'S', 'Z':
		return Type{Kind: s[i], Dims: dims}, i + 1, nil
	case 'V':
		if dims > 0 {
			return Type{}, i, fmt.Errorf("descriptor: array of void")
		}
		return Type{Kind: 'V'}, i + 1, nil
	case 'L':
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return Type{}, i, fmt.Errorf("descriptor: unterminated class name")
		}
		name := s[i+1 : i+end]
		if name == "" {
			return Type{}, i, fmt.Errorf("descriptor: empty class name")
		}
		return Type{Kind: 'L', ClassName: name, Dims: dims}, i + end + 1, nil
	default:
		return Type{}, i, fmt.Errorf("descriptor: invalid type character %q", s[i])
	}
}

// ParseField parses a field descriptor. Void is not a legal field type.
func ParseField(s string) (Type, error) {
	t, i, err := parseOne(s, 0)
	if err != nil {
		return Type{}, err
	}
	if i != len(s) {
		return Type{}, fmt.Errorf("descriptor: trailing characters in field descriptor %q", s)
	}
	if t.IsVoid() {
		return Type{}, fmt.Errorf("descriptor: void field descriptor")
	}
	return t, nil
}

// ParseMethod parses a method descriptor like (ILjava/lang/String;)V.
func ParseMethod(s string) (Method, error) { return ParseMethodInto(s, nil) }

// ParseMethodInto is ParseMethod appending the parameters to
// params[:0]: the result's Params shares params' array when it has the
// room, so a caller that hands back the last result's Params parses
// without allocating.
func ParseMethodInto(s string, params []Type) (Method, error) {
	if len(s) == 0 || s[0] != '(' {
		return Method{}, fmt.Errorf("descriptor: method descriptor %q must start with '('", s)
	}
	i := 1
	params = params[:0]
	for i < len(s) && s[i] != ')' {
		t, next, err := parseOne(s, i)
		if err != nil {
			return Method{}, err
		}
		if t.IsVoid() {
			return Method{}, fmt.Errorf("descriptor: void parameter in %q", s)
		}
		params = append(params, t)
		i = next
	}
	if i >= len(s) {
		return Method{}, fmt.Errorf("descriptor: missing ')' in %q", s)
	}
	i++ // consume ')'
	ret, next, err := parseOne(s, i)
	if err != nil {
		return Method{}, err
	}
	if next != len(s) {
		return Method{}, fmt.Errorf("descriptor: trailing characters in %q", s)
	}
	return Method{Params: params, Return: ret}, nil
}

// validOne scans one type starting at s[i] without allocating,
// accepting exactly what parseOne accepts. It returns the index just
// past the type, the slots the type occupies (Type.Slots: 0 only for
// void), and validity.
func validOne(s string, i int) (next, slots int, ok bool) {
	dims := 0
	for i < len(s) && s[i] == '[' {
		dims++
		i++
		if dims > 255 {
			return i, 0, false
		}
	}
	if i >= len(s) {
		return i, 0, false
	}
	switch s[i] {
	case 'B', 'C', 'F', 'I', 'S', 'Z':
		return i + 1, 1, true
	case 'D', 'J':
		if dims > 0 {
			return i + 1, 1, true
		}
		return i + 1, 2, true
	case 'V':
		return i + 1, 0, dims == 0
	case 'L':
		end := strings.IndexByte(s[i:], ';')
		if end < 2 { // missing ';' or empty class name
			return i, 0, false
		}
		return i + end + 1, 1, true
	default:
		return i, 0, false
	}
}

// ValidField reports whether s is a syntactically legal field
// descriptor. Equivalent to ParseField(s) == nil, but a pure scan —
// no Type, no error values.
func ValidField(s string) bool {
	next, slots, ok := validOne(s, 0)
	return ok && slots > 0 && next == len(s)
}

// MethodSlots scans a method descriptor like (ILjava/lang/String;)V
// without allocating and returns its parameter slots and return slots
// — ParseMethod's ParamSlots and Return.Slots. It accepts exactly what
// ParseMethod accepts.
func MethodSlots(s string) (params, ret int, ok bool) {
	_, params, _, ret, ok = scanMethod(s)
	return params, ret, ok
}

// MethodArity scans a method descriptor without allocating and returns
// its parameter count and its return type's descriptor — ParseMethod's
// len(Params) and Return.String(). It accepts exactly what ParseMethod
// accepts.
func MethodArity(s string) (params int, ret string, ok bool) {
	params, _, ret, _, ok = scanMethod(s)
	return params, ret, ok
}

// scanMethod is MethodSlots and MethodArity: the parameter count and
// slots, and the return type's descriptor and slots.
func scanMethod(s string) (n, slots int, ret string, retSlots int, ok bool) {
	if len(s) == 0 || s[0] != '(' {
		return 0, 0, "", 0, false
	}
	i := 1
	for i < len(s) && s[i] != ')' {
		next, ps, ok := validOne(s, i)
		if !ok || ps == 0 {
			return 0, 0, "", 0, false
		}
		n++
		slots += ps
		i = next
	}
	if i >= len(s) {
		return 0, 0, "", 0, false
	}
	i++ // consume ')'
	next, retSlots, ok := validOne(s, i)
	if !ok || next != len(s) {
		return 0, 0, "", 0, false
	}
	return n, slots, s[i:], retSlots, true
}

// ValidMethod reports whether s is a syntactically legal method descriptor.
func ValidMethod(s string) bool {
	_, _, ok := MethodSlots(s)
	return ok
}

// ValidClassName reports whether s is a plausible internal class name:
// nonempty slash-separated segments without descriptor metacharacters.
// The JVM spec is permissive here; we reject only what all real VMs
// reject (empty names, stray ';', '[' in the middle).
func ValidClassName(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '[' {
		// Array type used in a class context: must be a valid field descriptor.
		return ValidField(s)
	}
	// Walk segments in place (the equivalent of splitting on '/'): no
	// empty segment, no descriptor metacharacters inside one.
	segLen := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '/':
			if segLen == 0 {
				return false
			}
			segLen = 0
		case ';', '[', '.':
			return false
		default:
			segLen++
		}
	}
	return segLen > 0
}
