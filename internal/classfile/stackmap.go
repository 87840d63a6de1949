package classfile

import "fmt"

// Structured StackMapTable support (JVMS §4.7.4). The startup pipeline
// verifies by type inference and never consults these frames, but a
// classfile toolchain must still understand them: DecodeStackMap
// parses the frame list out of a StackMapTableAttr and EncodeStackMap
// re-serialises it byte-exactly, so tools can inspect or rewrite maps
// produced by javac/Soot.

// VerificationType tags (JVMS Table 4.7.4-A).
const (
	VTTop               = 0
	VTInteger           = 1
	VTFloat             = 2
	VTDouble            = 3
	VTLong              = 4
	VTNull              = 5
	VTUninitializedThis = 6
	VTObject            = 7
	VTUninitialized     = 8
)

// VerificationTypeInfo is one verification_type_info union value.
type VerificationTypeInfo struct {
	Tag byte
	// CPoolIndex is set for VTObject (a Class constant).
	CPoolIndex uint16
	// Offset is set for VTUninitialized (the pc of the `new`).
	Offset uint16
}

// FrameKind classifies a stack_map_frame entry.
type FrameKind int

// Frame kinds.
const (
	FrameSame FrameKind = iota
	FrameSameLocals1Stack
	FrameSameLocals1StackExtended
	FrameChop
	FrameSameExtended
	FrameAppend
	FrameFull
)

// StackMapFrame is one decoded frame.
type StackMapFrame struct {
	Kind FrameKind
	// OffsetDelta is the encoded delta to the previous frame's pc.
	OffsetDelta uint16
	// Stack holds the single stack item (same_locals_1_stack...) or the
	// full stack (full_frame).
	Stack []VerificationTypeInfo
	// Locals holds the appended locals (append_frame) or all locals
	// (full_frame).
	Locals []VerificationTypeInfo
	// Chopped is the number of absent locals for chop frames (1..3).
	Chopped int
}

// DecodeStackMap parses the raw attribute body into frames.
func DecodeStackMap(a *StackMapTableAttr) ([]StackMapFrame, error) {
	br := &reader{data: a.Raw}
	n := int(br.u2())
	// Every frame takes at least one byte, so the declared count cannot
	// size the slice past what the remaining bytes encode.
	frames := make([]StackMapFrame, 0, min(n, br.remaining()))
	for i := 0; i < n; i++ {
		if br.err != nil {
			return nil, br.err
		}
		ft := br.u1()
		var f StackMapFrame
		switch {
		case ft <= 63:
			f = StackMapFrame{Kind: FrameSame, OffsetDelta: uint16(ft)}
		case ft <= 127:
			f = StackMapFrame{Kind: FrameSameLocals1Stack, OffsetDelta: uint16(ft - 64)}
			v, err := decodeVTI(br)
			if err != nil {
				return nil, err
			}
			f.Stack = []VerificationTypeInfo{v}
		case ft == 247:
			f = StackMapFrame{Kind: FrameSameLocals1StackExtended, OffsetDelta: br.u2()}
			v, err := decodeVTI(br)
			if err != nil {
				return nil, err
			}
			f.Stack = []VerificationTypeInfo{v}
		case ft >= 248 && ft <= 250:
			f = StackMapFrame{Kind: FrameChop, OffsetDelta: br.u2(), Chopped: int(251 - ft)}
		case ft == 251:
			f = StackMapFrame{Kind: FrameSameExtended, OffsetDelta: br.u2()}
		case ft >= 252 && ft <= 254:
			f = StackMapFrame{Kind: FrameAppend, OffsetDelta: br.u2()}
			for k := 0; k < int(ft-251); k++ {
				v, err := decodeVTI(br)
				if err != nil {
					return nil, err
				}
				f.Locals = append(f.Locals, v)
			}
		case ft == 255:
			f = StackMapFrame{Kind: FrameFull, OffsetDelta: br.u2()}
			nl := int(br.u2())
			for k := 0; k < nl; k++ {
				v, err := decodeVTI(br)
				if err != nil {
					return nil, err
				}
				f.Locals = append(f.Locals, v)
			}
			ns := int(br.u2())
			for k := 0; k < ns; k++ {
				v, err := decodeVTI(br)
				if err != nil {
					return nil, err
				}
				f.Stack = append(f.Stack, v)
			}
		default:
			return nil, &FormatError{Offset: br.pos, Reason: fmt.Sprintf("reserved stack_map_frame type %d", ft)}
		}
		if br.err != nil {
			return nil, br.err
		}
		frames = append(frames, f)
	}
	if br.pos != len(a.Raw) {
		return nil, &FormatError{Offset: br.pos, Reason: "trailing bytes in StackMapTable"}
	}
	return frames, nil
}

func decodeVTI(br *reader) (VerificationTypeInfo, error) {
	v := VerificationTypeInfo{Tag: br.u1()}
	switch v.Tag {
	case VTTop, VTInteger, VTFloat, VTDouble, VTLong, VTNull, VTUninitializedThis:
	case VTObject:
		v.CPoolIndex = br.u2()
	case VTUninitialized:
		v.Offset = br.u2()
	default:
		return v, &FormatError{Offset: br.pos, Reason: fmt.Sprintf("invalid verification_type_info tag %d", v.Tag)}
	}
	return v, br.err
}

// EncodeStackMap serialises frames back into a StackMapTableAttr body.
// Frames must be representable in their declared kind (e.g. a Same
// frame's delta must fit in 0..63); EncodeStackMap promotes frames to
// their extended forms when the delta overflows the short form.
func EncodeStackMap(frames []StackMapFrame) *StackMapTableAttr {
	w := &writer{}
	w.u2(uint16(len(frames)))
	for _, f := range frames {
		switch f.Kind {
		case FrameSame:
			if f.OffsetDelta <= 63 {
				w.u1(byte(f.OffsetDelta))
			} else {
				w.u1(251)
				w.u2(f.OffsetDelta)
			}
		case FrameSameExtended:
			w.u1(251)
			w.u2(f.OffsetDelta)
		case FrameSameLocals1Stack:
			if f.OffsetDelta <= 63 {
				w.u1(byte(64 + f.OffsetDelta))
			} else {
				w.u1(247)
				w.u2(f.OffsetDelta)
			}
			encodeVTI(w, first(f.Stack))
		case FrameSameLocals1StackExtended:
			w.u1(247)
			w.u2(f.OffsetDelta)
			encodeVTI(w, first(f.Stack))
		case FrameChop:
			ch := f.Chopped
			if ch < 1 {
				ch = 1
			}
			if ch > 3 {
				ch = 3
			}
			w.u1(byte(251 - ch))
			w.u2(f.OffsetDelta)
		case FrameAppend:
			n := len(f.Locals)
			if n < 1 {
				n = 1
			}
			if n > 3 {
				n = 3
			}
			w.u1(byte(251 + n))
			w.u2(f.OffsetDelta)
			for i := 0; i < n; i++ {
				if i < len(f.Locals) {
					encodeVTI(w, f.Locals[i])
				} else {
					encodeVTI(w, VerificationTypeInfo{Tag: VTTop})
				}
			}
		case FrameFull:
			w.u1(255)
			w.u2(f.OffsetDelta)
			w.u2(uint16(len(f.Locals)))
			for _, v := range f.Locals {
				encodeVTI(w, v)
			}
			w.u2(uint16(len(f.Stack)))
			for _, v := range f.Stack {
				encodeVTI(w, v)
			}
		}
	}
	return &StackMapTableAttr{Raw: w.buf}
}

func first(vs []VerificationTypeInfo) VerificationTypeInfo {
	if len(vs) == 0 {
		return VerificationTypeInfo{Tag: VTTop}
	}
	return vs[0]
}

func encodeVTI(w *writer, v VerificationTypeInfo) {
	w.u1(v.Tag)
	switch v.Tag {
	case VTObject:
		w.u2(v.CPoolIndex)
	case VTUninitialized:
		w.u2(v.Offset)
	}
}
