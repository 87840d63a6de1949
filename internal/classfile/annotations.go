package classfile

import "fmt"

// This file models the remaining structured attributes real classfile
// tooling needs: the annotation family (JVMS §4.7.16/17, with the
// recursive element_value grammar) and BootstrapMethods (§4.7.23).
// The fuzzer's VMs ignore annotations — as real startup pipelines
// mostly do — but round-tripping them structurally keeps the toolchain
// usable on compiler-produced classfiles.

// Attribute names for the annotation family.
const (
	AttrRuntimeVisibleAnnotations   = "RuntimeVisibleAnnotations"
	AttrRuntimeInvisibleAnnotations = "RuntimeInvisibleAnnotations"
	AttrBootstrapMethods            = "BootstrapMethods"
)

// Annotation is one annotation structure.
type Annotation struct {
	// TypeIndex is a Utf8 holding the annotation type's field descriptor.
	TypeIndex uint16
	Elements  []ElementPair
}

// ElementPair is one element_value_pair.
type ElementPair struct {
	NameIndex uint16
	Value     ElementValue
}

// ElementValue is the recursive element_value union; Tag selects which
// members are meaningful:
//
//	'B','C','D','F','I','J','S','Z','s' -> ConstIndex
//	'e' -> EnumType, EnumName
//	'c' -> ClassInfo
//	'@' -> Nested
//	'[' -> Array
type ElementValue struct {
	Tag        byte
	ConstIndex uint16
	EnumType   uint16
	EnumName   uint16
	ClassInfo  uint16
	Nested     *Annotation
	Array      []ElementValue
}

// AnnotationsAttr is RuntimeVisibleAnnotations or
// RuntimeInvisibleAnnotations, selected by Visible.
type AnnotationsAttr struct {
	Visible     bool
	Annotations []Annotation
}

// AttrName implements Attribute.
func (a *AnnotationsAttr) AttrName() string {
	if a.Visible {
		return AttrRuntimeVisibleAnnotations
	}
	return AttrRuntimeInvisibleAnnotations
}

// CloneAttr implements Attribute.
func (a *AnnotationsAttr) CloneAttr() Attribute {
	out := &AnnotationsAttr{Visible: a.Visible}
	for _, an := range a.Annotations {
		out.Annotations = append(out.Annotations, cloneAnnotation(an))
	}
	return out
}

func cloneAnnotation(a Annotation) Annotation {
	out := Annotation{TypeIndex: a.TypeIndex}
	for _, p := range a.Elements {
		out.Elements = append(out.Elements, ElementPair{NameIndex: p.NameIndex, Value: cloneElementValue(p.Value)})
	}
	return out
}

func cloneElementValue(v ElementValue) ElementValue {
	out := v
	if v.Nested != nil {
		n := cloneAnnotation(*v.Nested)
		out.Nested = &n
	}
	out.Array = nil
	for _, e := range v.Array {
		out.Array = append(out.Array, cloneElementValue(e))
	}
	return out
}

// BootstrapMethod is one bootstrap_methods entry.
type BootstrapMethod struct {
	// MethodRef is a MethodHandle constant.
	MethodRef uint16
	Args      []uint16
}

// BootstrapMethodsAttr anchors invokedynamic call sites.
type BootstrapMethodsAttr struct {
	Methods []BootstrapMethod
}

// AttrName implements Attribute.
func (*BootstrapMethodsAttr) AttrName() string { return AttrBootstrapMethods }

// CloneAttr implements Attribute.
func (a *BootstrapMethodsAttr) CloneAttr() Attribute {
	out := &BootstrapMethodsAttr{}
	for _, m := range a.Methods {
		out.Methods = append(out.Methods, BootstrapMethod{
			MethodRef: m.MethodRef,
			Args:      append([]uint16(nil), m.Args...),
		})
	}
	return out
}

// --- decoding -----------------------------------------------------------------

func decodeAnnotationsAttr(body []byte, visible bool) (Attribute, error) {
	br := &reader{data: body}
	n := int(br.u2())
	a := &AnnotationsAttr{Visible: visible}
	for i := 0; i < n; i++ {
		an, err := decodeAnnotation(br)
		if err != nil {
			return nil, err
		}
		a.Annotations = append(a.Annotations, an)
	}
	if br.err != nil {
		return nil, br.err
	}
	if br.pos != len(body) {
		return nil, &FormatError{Offset: br.pos, Reason: "trailing bytes in annotations attribute"}
	}
	return a, nil
}

func decodeAnnotation(br *reader) (Annotation, error) {
	a := Annotation{TypeIndex: br.u2()}
	n := int(br.u2())
	for i := 0; i < n; i++ {
		if br.err != nil {
			return a, br.err
		}
		p := ElementPair{NameIndex: br.u2()}
		v, err := decodeElementValue(br, 0)
		if err != nil {
			return a, err
		}
		p.Value = v
		a.Elements = append(a.Elements, p)
	}
	return a, br.err
}

func decodeElementValue(br *reader, depth int) (ElementValue, error) {
	if depth > 16 {
		return ElementValue{}, &FormatError{Offset: br.pos, Reason: "element_value nesting too deep"}
	}
	v := ElementValue{Tag: br.u1()}
	switch v.Tag {
	case 'B', 'C', 'D', 'F', 'I', 'J', 'S', 'Z', 's':
		v.ConstIndex = br.u2()
	case 'e':
		v.EnumType = br.u2()
		v.EnumName = br.u2()
	case 'c':
		v.ClassInfo = br.u2()
	case '@':
		an, err := decodeAnnotation(br)
		if err != nil {
			return v, err
		}
		v.Nested = &an
	case '[':
		n := int(br.u2())
		for i := 0; i < n; i++ {
			if br.err != nil {
				return v, br.err
			}
			e, err := decodeElementValue(br, depth+1)
			if err != nil {
				return v, err
			}
			v.Array = append(v.Array, e)
		}
	default:
		return v, &FormatError{Offset: br.pos, Reason: fmt.Sprintf("unknown element_value tag %q", v.Tag)}
	}
	return v, br.err
}

func decodeBootstrapMethods(body []byte) (Attribute, error) {
	br := &reader{data: body}
	n := int(br.u2())
	a := &BootstrapMethodsAttr{}
	for i := 0; i < n; i++ {
		m := BootstrapMethod{MethodRef: br.u2()}
		na := int(br.u2())
		if br.err != nil {
			return nil, br.err
		}
		for j := 0; j < na && br.err == nil; j++ {
			m.Args = append(m.Args, br.u2())
		}
		a.Methods = append(a.Methods, m)
	}
	if br.err != nil {
		return nil, br.err
	}
	return a, nil
}

// --- encoding -----------------------------------------------------------------

func encodeAnnotationsAttr(w *writer, a *AnnotationsAttr) {
	w.u2(uint16(len(a.Annotations)))
	for _, an := range a.Annotations {
		encodeAnnotation(w, an)
	}
}

func encodeAnnotation(w *writer, a Annotation) {
	w.u2(a.TypeIndex)
	w.u2(uint16(len(a.Elements)))
	for _, p := range a.Elements {
		w.u2(p.NameIndex)
		encodeElementValue(w, p.Value)
	}
}

func encodeElementValue(w *writer, v ElementValue) {
	w.u1(v.Tag)
	switch v.Tag {
	case 'B', 'C', 'D', 'F', 'I', 'J', 'S', 'Z', 's':
		w.u2(v.ConstIndex)
	case 'e':
		w.u2(v.EnumType)
		w.u2(v.EnumName)
	case 'c':
		w.u2(v.ClassInfo)
	case '@':
		if v.Nested != nil {
			encodeAnnotation(w, *v.Nested)
		} else {
			encodeAnnotation(w, Annotation{})
		}
	case '[':
		w.u2(uint16(len(v.Array)))
		for _, e := range v.Array {
			encodeElementValue(w, e)
		}
	}
}

func encodeBootstrapMethods(w *writer, a *BootstrapMethodsAttr) {
	w.u2(uint16(len(a.Methods)))
	for _, m := range a.Methods {
		w.u2(m.MethodRef)
		w.u2(uint16(len(m.Args)))
		for _, arg := range m.Args {
			w.u2(arg)
		}
	}
}
