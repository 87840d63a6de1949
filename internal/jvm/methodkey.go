package jvm

import (
	"math"
	"math/bits"

	"repro/internal/classfile"
	"repro/internal/rtlib"
)

// Method-granular verification keys for the lineage-delta memo.
//
// A MethodKey is a 128-bit content hash of everything the verifier in
// this package can read while verifying one method body:
//
//   - per-class context, hashed once per class into a VerifyKeyCtx:
//     major version, class access flags, the super/interface indices,
//     every constant-pool entry in slot order, and whether the class's
//     own name resolves in the bound library environment;
//   - per-method bits: access flags, name/descriptor indices (the pool
//     hash covers their content), the Code attribute's max_stack /
//     max_locals / raw code bytes / exception table, and the raw
//     StackMapTable bytes (presets that type-check only ever test the
//     table for decodability, a pure function of those bytes).
//
// The key extends analysis.VerifyFingerprint's self-name masking to
// method granularity: every Utf8 pool entry equal to the class's own
// name hashes as an opaque marker instead of its content, so a mutant
// that differs from its parent only by the generated class name (every
// generation renames to M<iter>) produces identical keys for untouched
// methods. Verifier behaviour is invariant under renaming the self
// class because the name only ever participates as "is this string the
// class under test?" (resolveClass, catch-type and assignability
// checks) — except when the self name shadows a platform class, which
// is why the env-resolvability bit above is part of the context.
//
// Soundness is by refinement: the key hashes at least every input the
// verifier reads, so key equality implies the verifier sees equal
// inputs up to the opaque self-name token and must produce the same
// verdict. Hashing more than a particular method touches (the whole
// pool rather than the entries it references) only splits keys that
// could have been shared — it costs memo hits, never correctness.
type MethodKey struct{ Lo, Hi uint64 }

const (
	vkFnvOffset = 14695981039346656037
	vkFnvPrime  = 1099511628211
	vkAltOffset = 0x9e3779b97f4a7c15
	// vkSelfMark replaces a masked self-name Utf8 entry; vkNilSlot marks
	// the nil slot after a long/double pool entry.
	vkSelfMark = 0x5e1fc0de5e1fc0de
	vkNilSlot  = 0x0f0f0f0f0f0f0f0f
)

func vkMix(h, x uint64) uint64 {
	h ^= x
	h *= vkFnvPrime
	h ^= h >> 29
	return h
}

// vkHash is the two-lane accumulator behind MethodKey, the same mixing
// discipline as coverage.Trace's Key.
type vkHash struct{ hi, lo uint64 }

func (h *vkHash) word(x uint64) {
	h.hi = vkMix(h.hi, x)
	h.lo = vkMix(h.lo, bits.RotateLeft64(x, 32))
}

// str hashes a length-prefixed string; the prefix keeps adjacent fields
// unambiguous.
func (h *vkHash) str(s string) {
	h.word(uint64(len(s)))
	var w uint64
	var n uint
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << n
		n += 8
		if n == 64 {
			h.word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.word(w)
	}
}

func (h *vkHash) bytes(b []byte) {
	h.word(uint64(len(b)))
	var w uint64
	var n uint
	for _, c := range b {
		w |= uint64(c) << n
		n += 8
		if n == 64 {
			h.word(w)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h.word(w)
	}
}

// VerifyKeyCtx is the per-class half of MethodKey derivation, computed
// once per (class, environment) and reused for every method. It is
// read-only after construction.
type VerifyKeyCtx struct {
	base vkHash
}

// NewVerifyKeyCtx hashes the class-level verification context of f
// against the library environment env.
func NewVerifyKeyCtx(f *classfile.File, env *rtlib.Env) *VerifyKeyCtx {
	self := f.Name()
	h := vkHash{hi: vkFnvOffset, lo: vkAltOffset}
	h.word(uint64(f.Major))
	h.word(uint64(f.AccessFlags))
	h.word(uint64(f.SuperClass))
	h.word(uint64(len(f.Interfaces)))
	for _, i := range f.Interfaces {
		h.word(uint64(i))
	}

	// Every pool slot in order. Content the verifier reads resolves
	// through here (class/member names, descriptors, ldc constants), so
	// hashing the whole pool refines any per-method reference set.
	h.word(uint64(f.Pool.Count()))
	for i := 1; i < f.Pool.Count(); i++ {
		c := f.Pool.Get(uint16(i))
		if c == nil {
			h.word(vkNilSlot)
			continue
		}
		h.word(uint64(c.Tag))
		switch c.Tag {
		case classfile.TagUtf8:
			if self != "" && c.Str == self {
				h.word(vkSelfMark)
			} else {
				h.str(c.Str)
			}
		case classfile.TagInteger:
			h.word(uint64(uint32(c.Int)))
		case classfile.TagFloat:
			h.word(uint64(math.Float32bits(c.Float)))
		case classfile.TagLong:
			h.word(uint64(c.Long))
		case classfile.TagDouble:
			h.word(math.Float64bits(c.Double))
		case classfile.TagMethodHandle:
			h.word(uint64(c.Kind)<<16 | uint64(c.Ref1))
		default:
			// Class/String/MethodType use Ref1; member refs, NameAndType
			// and InvokeDynamic use Ref1+Ref2. Hashing both is harmless
			// for the single-ref tags (Ref2 is zero there).
			h.word(uint64(c.Ref1)<<16 | uint64(c.Ref2))
		}
	}

	// The masked name makes renamed lineages collide; whether the name
	// shadows a platform class is the one renaming-visible behaviour
	// left (env lookups reached with the self name), so hash the
	// verbatim name exactly when it resolves.
	if _, ok := env.Lookup(self); ok && self != "" {
		h.str(self)
	} else {
		h.word(0)
	}
	return &VerifyKeyCtx{base: h}
}

// Key derives the method's verification key. ok is false when the
// method has no Code attribute (nothing to verify, nothing to memoise).
func (ctx *VerifyKeyCtx) Key(m *classfile.Member) (MethodKey, bool) {
	code := m.Code()
	if code == nil {
		return MethodKey{}, false
	}
	h := ctx.base
	h.word(uint64(m.AccessFlags))
	h.word(uint64(m.NameIndex)<<16 | uint64(m.DescIndex))
	h.word(uint64(code.MaxStack)<<16 | uint64(code.MaxLocals))
	h.bytes(code.Code)
	h.word(uint64(len(code.Handlers)))
	for _, hd := range code.Handlers {
		h.word(uint64(hd.StartPC)<<48 | uint64(hd.EndPC)<<32 |
			uint64(hd.HandlerPC)<<16 | uint64(hd.CatchType))
	}
	sm := []byte(nil)
	for _, a := range code.Attributes {
		if t, ok := a.(*classfile.StackMapTableAttr); ok {
			sm = t.Raw
			break
		}
	}
	h.bytes(sm)
	return MethodKey{Lo: h.lo, Hi: h.hi}, true
}
