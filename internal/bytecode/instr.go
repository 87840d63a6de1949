package bytecode

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Instruction is one decoded JVM instruction at a byte offset (PC) in a
// Code attribute. Operand fields are populated according to the opcode's
// OperandKind; unused fields stay at their zero values.
type Instruction struct {
	PC int    // byte offset of the opcode within the code array
	Op Opcode // the opcode (for wide instructions, the modified opcode is in WideOp)

	// Operand values, populated per OperandKind:
	Imm      int32 // bipush/sipush immediate, iinc constant
	CPIndex  uint16
	Local    uint16 // local variable index (byte form or wide form)
	Branch   int32  // signed branch offset relative to PC
	Count    byte   // invokeinterface count, multianewarray dimensions
	WideOp   Opcode // modified opcode of a wide instruction
	ArrayTyp ArrayTypeCode

	// Switch payload (tableswitch/lookupswitch).
	SwitchDefault int32
	SwitchLow     int32   // tableswitch only
	SwitchHigh    int32   // tableswitch only
	SwitchKeys    []int32 // lookupswitch only
	SwitchOffsets []int32 // jump offsets relative to PC

	size int // encoded size in bytes
}

// Size returns the number of bytes this instruction occupies in the
// code array (including the opcode byte and switch padding).
func (in *Instruction) Size() int { return in.size }

// NumTargets returns how many PCs this instruction may branch to,
// excluding fall-through: 1 for a branch, 1 + the case count for a
// switch, 0 otherwise.
func (in *Instruction) NumTargets() int {
	switch {
	case in.Op.IsBranch():
		return 1
	case in.Op == Tableswitch, in.Op == Lookupswitch:
		return 1 + len(in.SwitchOffsets)
	}
	return 0
}

// Target returns the k-th absolute PC this instruction may branch to,
// 0 <= k < NumTargets(): a branch's one target, or a switch's default
// (k = 0) and then its cases.
func (in *Instruction) Target(k int) int {
	if in.Op.IsBranch() {
		return in.PC + int(in.Branch)
	}
	if k == 0 {
		return in.PC + int(in.SwitchDefault)
	}
	return in.PC + int(in.SwitchOffsets[k-1])
}

// String renders the instruction in a javap-like form.
func (in *Instruction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4d: %s", in.PC, in.Op.Mnemonic())
	info, _ := Lookup(in.Op)
	switch info.Kind {
	case OpByte:
		if in.Op == Newarray {
			fmt.Fprintf(&b, " %s", in.ArrayTyp.Descriptor())
		} else {
			fmt.Fprintf(&b, " %d", in.Imm)
		}
	case OpShort:
		fmt.Fprintf(&b, " %d", in.Imm)
	case OpCPByte, OpCPShort, OpInvokeDynamic:
		fmt.Fprintf(&b, " #%d", in.CPIndex)
	case OpLocalByte:
		fmt.Fprintf(&b, " %d", in.Local)
	case OpBranch2, OpBranch4:
		fmt.Fprintf(&b, " %d", in.PC+int(in.Branch))
	case OpIinc:
		fmt.Fprintf(&b, " %d, %d", in.Local, in.Imm)
	case OpInvokeInterface:
		fmt.Fprintf(&b, " #%d, %d", in.CPIndex, in.Count)
	case OpMultianewarray:
		fmt.Fprintf(&b, " #%d, %d", in.CPIndex, in.Count)
	case OpWide:
		fmt.Fprintf(&b, " %s %d", in.WideOp.Mnemonic(), in.Local)
		if in.WideOp == Iinc {
			fmt.Fprintf(&b, ", %d", in.Imm)
		}
	case OpTableswitch:
		fmt.Fprintf(&b, " {default: %d, %d..%d}", in.PC+int(in.SwitchDefault), in.SwitchLow, in.SwitchHigh)
	case OpLookupswitch:
		fmt.Fprintf(&b, " {default: %d, %d pairs}", in.PC+int(in.SwitchDefault), len(in.SwitchKeys))
	}
	return b.String()
}

// DecodeError reports a malformed code array.
type DecodeError struct {
	PC     int
	Op     Opcode
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("bytecode: invalid instruction at pc %d (opcode 0x%02x %s): %s",
		e.PC, byte(e.Op), e.Op.Mnemonic(), e.Reason)
}

// decodeAt decodes the instruction starting at code[pc] into *in,
// overwriting all of it. With tables false a switch is checked and
// sized but its offset and key tables are left nil, so sizing a code
// array allocates nothing.
func decodeAt(code []byte, pc int, in *Instruction, tables bool) error {
	if pc < 0 || pc >= len(code) {
		return &DecodeError{PC: pc, Reason: "pc out of range"}
	}
	op := Opcode(code[pc])
	info, ok := Lookup(op)
	if !ok {
		return &DecodeError{PC: pc, Op: op, Reason: "undefined opcode"}
	}
	*in = Instruction{PC: pc, Op: op}
	need := func(n int) error {
		if pc+1+n > len(code) {
			return &DecodeError{PC: pc, Op: op, Reason: "truncated operands"}
		}
		return nil
	}
	switch info.Kind {
	case OpNone:
		in.size = 1
	case OpByte:
		if err := need(1); err != nil {
			return err
		}
		if op == Newarray {
			in.ArrayTyp = ArrayTypeCode(code[pc+1])
		} else {
			in.Imm = int32(int8(code[pc+1]))
		}
		in.size = 2
	case OpShort:
		if err := need(2); err != nil {
			return err
		}
		in.Imm = int32(int16(binary.BigEndian.Uint16(code[pc+1:])))
		in.size = 3
	case OpCPByte:
		if err := need(1); err != nil {
			return err
		}
		in.CPIndex = uint16(code[pc+1])
		in.size = 2
	case OpCPShort:
		if err := need(2); err != nil {
			return err
		}
		in.CPIndex = binary.BigEndian.Uint16(code[pc+1:])
		in.size = 3
	case OpLocalByte:
		if err := need(1); err != nil {
			return err
		}
		in.Local = uint16(code[pc+1])
		in.size = 2
	case OpBranch2:
		if err := need(2); err != nil {
			return err
		}
		in.Branch = int32(int16(binary.BigEndian.Uint16(code[pc+1:])))
		in.size = 3
	case OpBranch4:
		if err := need(4); err != nil {
			return err
		}
		in.Branch = int32(binary.BigEndian.Uint32(code[pc+1:]))
		in.size = 5
	case OpIinc:
		if err := need(2); err != nil {
			return err
		}
		in.Local = uint16(code[pc+1])
		in.Imm = int32(int8(code[pc+2]))
		in.size = 3
	case OpInvokeInterface:
		if err := need(4); err != nil {
			return err
		}
		in.CPIndex = binary.BigEndian.Uint16(code[pc+1:])
		in.Count = code[pc+3]
		in.size = 5
	case OpInvokeDynamic:
		if err := need(4); err != nil {
			return err
		}
		in.CPIndex = binary.BigEndian.Uint16(code[pc+1:])
		in.size = 5
	case OpMultianewarray:
		if err := need(3); err != nil {
			return err
		}
		in.CPIndex = binary.BigEndian.Uint16(code[pc+1:])
		in.Count = code[pc+3]
		in.size = 4
	case OpWide:
		if err := need(1); err != nil {
			return err
		}
		in.WideOp = Opcode(code[pc+1])
		switch in.WideOp {
		case Iload, Lload, Fload, Dload, Aload, Istore, Lstore, Fstore, Dstore, Astore, Ret:
			if err := need(3); err != nil {
				return err
			}
			in.Local = binary.BigEndian.Uint16(code[pc+2:])
			in.size = 4
		case Iinc:
			if err := need(5); err != nil {
				return err
			}
			in.Local = binary.BigEndian.Uint16(code[pc+2:])
			in.Imm = int32(int16(binary.BigEndian.Uint16(code[pc+4:])))
			in.size = 6
		default:
			return &DecodeError{PC: pc, Op: op, Reason: fmt.Sprintf("invalid wide target %s", in.WideOp.Mnemonic())}
		}
	case OpTableswitch:
		base := pc + 1
		pad := (4 - base%4) % 4
		base += pad
		if base+12 > len(code) {
			return &DecodeError{PC: pc, Op: op, Reason: "truncated tableswitch header"}
		}
		in.SwitchDefault = int32(binary.BigEndian.Uint32(code[base:]))
		in.SwitchLow = int32(binary.BigEndian.Uint32(code[base+4:]))
		in.SwitchHigh = int32(binary.BigEndian.Uint32(code[base+8:]))
		if in.SwitchLow > in.SwitchHigh {
			return &DecodeError{PC: pc, Op: op, Reason: "tableswitch low > high"}
		}
		n := int64(in.SwitchHigh) - int64(in.SwitchLow) + 1
		if n > int64(len(code)) {
			return &DecodeError{PC: pc, Op: op, Reason: "tableswitch entry count exceeds code size"}
		}
		if base+12+int(n)*4 > len(code) {
			return &DecodeError{PC: pc, Op: op, Reason: "truncated tableswitch entries"}
		}
		if tables {
			in.SwitchOffsets = make([]int32, n)
			for i := int64(0); i < n; i++ {
				in.SwitchOffsets[i] = int32(binary.BigEndian.Uint32(code[base+12+int(i)*4:]))
			}
		}
		in.size = base + 12 + int(n)*4 - pc
	case OpLookupswitch:
		base := pc + 1
		pad := (4 - base%4) % 4
		base += pad
		if base+8 > len(code) {
			return &DecodeError{PC: pc, Op: op, Reason: "truncated lookupswitch header"}
		}
		in.SwitchDefault = int32(binary.BigEndian.Uint32(code[base:]))
		npairs := int32(binary.BigEndian.Uint32(code[base+4:]))
		if npairs < 0 || int64(npairs) > int64(len(code)) {
			return &DecodeError{PC: pc, Op: op, Reason: "lookupswitch pair count out of range"}
		}
		if base+8+int(npairs)*8 > len(code) {
			return &DecodeError{PC: pc, Op: op, Reason: "truncated lookupswitch pairs"}
		}
		if tables {
			in.SwitchKeys = make([]int32, npairs)
			in.SwitchOffsets = make([]int32, npairs)
		}
		prev := int64(-1) << 40
		for i := int32(0); i < npairs; i++ {
			k := int32(binary.BigEndian.Uint32(code[base+8+int(i)*8:]))
			if int64(k) <= prev {
				return &DecodeError{PC: pc, Op: op, Reason: "lookupswitch keys not sorted"}
			}
			prev = int64(k)
			if tables {
				in.SwitchKeys[i] = k
				in.SwitchOffsets[i] = int32(binary.BigEndian.Uint32(code[base+8+int(i)*8+4:]))
			}
		}
		in.size = base + 8 + int(npairs)*8 - pc
	default:
		return &DecodeError{PC: pc, Op: op, Reason: "unhandled operand kind"}
	}
	return nil
}

// Decode decodes an entire code array into an instruction list.
// The instructions are returned in PC order; offsets between them are
// contiguous (no gaps, no overlaps) or an error is returned. A first
// pass only sizes them, allocating nothing, so the instructions share
// one array, the list is one more allocation however long the code,
// and each switch table is built once.
func Decode(code []byte) ([]*Instruction, error) {
	n := 0
	var probe Instruction
	for pc := 0; pc < len(code); pc += probe.size {
		if err := decodeAt(code, pc, &probe, false); err != nil {
			return nil, err
		}
		n++
	}
	if n == 0 {
		return nil, nil
	}
	ins := make([]Instruction, n)
	out := make([]*Instruction, n)
	pc := 0
	for i := range ins {
		_ = decodeAt(code, pc, &ins[i], true) // the first pass checked these bytes
		out[i] = &ins[i]
		pc += ins[i].size
	}
	return out, nil
}

// Encode re-serialises instructions into a code array, appended to dst,
// and returns the extended slice. Instructions are laid out at their
// recorded PCs; Encode verifies that sizes and PCs are consistent (as
// produced by Decode or by Assemble). A dst without room for the code
// array is grown to exactly the length needed, so a nil dst allocates
// one array of the code's size.
func Encode(dst []byte, ins []*Instruction) ([]byte, error) {
	if len(ins) == 0 {
		return dst, nil
	}
	last := ins[len(ins)-1]
	total := last.PC + last.Size()
	start := len(dst)
	if cap(dst)-start < total {
		grown := make([]byte, start, start+total)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+total]
	buf := dst[start:]
	clear(buf) // bytes a reused dst held must not show through
	pc := 0
	for _, in := range ins {
		if in.PC != pc {
			return nil, fmt.Errorf("bytecode: instruction %s at pc %d, expected pc %d", in.Op.Mnemonic(), in.PC, pc)
		}
		if err := encodeOne(buf, in); err != nil {
			return nil, err
		}
		pc += in.Size()
	}
	return dst, nil
}

func encodeOne(buf []byte, in *Instruction) error {
	info, ok := Lookup(in.Op)
	if !ok {
		return fmt.Errorf("bytecode: cannot encode undefined opcode 0x%02x", byte(in.Op))
	}
	pc := in.PC
	buf[pc] = byte(in.Op)
	switch info.Kind {
	case OpNone:
		in.size = 1
	case OpByte:
		if in.Op == Newarray {
			buf[pc+1] = byte(in.ArrayTyp)
		} else {
			buf[pc+1] = byte(int8(in.Imm))
		}
		in.size = 2
	case OpShort:
		binary.BigEndian.PutUint16(buf[pc+1:], uint16(int16(in.Imm)))
		in.size = 3
	case OpCPByte:
		buf[pc+1] = byte(in.CPIndex)
		in.size = 2
	case OpCPShort:
		binary.BigEndian.PutUint16(buf[pc+1:], in.CPIndex)
		in.size = 3
	case OpLocalByte:
		buf[pc+1] = byte(in.Local)
		in.size = 2
	case OpBranch2:
		binary.BigEndian.PutUint16(buf[pc+1:], uint16(int16(in.Branch)))
		in.size = 3
	case OpBranch4:
		binary.BigEndian.PutUint32(buf[pc+1:], uint32(in.Branch))
		in.size = 5
	case OpIinc:
		buf[pc+1] = byte(in.Local)
		buf[pc+2] = byte(int8(in.Imm))
		in.size = 3
	case OpInvokeInterface:
		binary.BigEndian.PutUint16(buf[pc+1:], in.CPIndex)
		buf[pc+3] = in.Count
		buf[pc+4] = 0
		in.size = 5
	case OpInvokeDynamic:
		binary.BigEndian.PutUint16(buf[pc+1:], in.CPIndex)
		buf[pc+3], buf[pc+4] = 0, 0
		in.size = 5
	case OpMultianewarray:
		binary.BigEndian.PutUint16(buf[pc+1:], in.CPIndex)
		buf[pc+3] = in.Count
		in.size = 4
	case OpWide:
		buf[pc+1] = byte(in.WideOp)
		binary.BigEndian.PutUint16(buf[pc+2:], in.Local)
		if in.WideOp == Iinc {
			binary.BigEndian.PutUint16(buf[pc+4:], uint16(int16(in.Imm)))
			in.size = 6
		} else {
			in.size = 4
		}
	case OpTableswitch:
		base := pc + 1
		pad := (4 - base%4) % 4
		for i := 0; i < pad; i++ {
			buf[base+i] = 0
		}
		base += pad
		binary.BigEndian.PutUint32(buf[base:], uint32(in.SwitchDefault))
		binary.BigEndian.PutUint32(buf[base+4:], uint32(in.SwitchLow))
		binary.BigEndian.PutUint32(buf[base+8:], uint32(in.SwitchHigh))
		for i, off := range in.SwitchOffsets {
			binary.BigEndian.PutUint32(buf[base+12+i*4:], uint32(off))
		}
		in.size = base + 12 + len(in.SwitchOffsets)*4 - pc
	case OpLookupswitch:
		base := pc + 1
		pad := (4 - base%4) % 4
		for i := 0; i < pad; i++ {
			buf[base+i] = 0
		}
		base += pad
		binary.BigEndian.PutUint32(buf[base:], uint32(in.SwitchDefault))
		binary.BigEndian.PutUint32(buf[base+4:], uint32(len(in.SwitchKeys)))
		for i := range in.SwitchKeys {
			binary.BigEndian.PutUint32(buf[base+8+i*8:], uint32(in.SwitchKeys[i]))
			binary.BigEndian.PutUint32(buf[base+8+i*8+4:], uint32(in.SwitchOffsets[i]))
		}
		in.size = base + 8 + len(in.SwitchKeys)*8 - pc
	default:
		return fmt.Errorf("bytecode: unhandled operand kind for %s", in.Op.Mnemonic())
	}
	return nil
}

// sizeAt computes the encoded size of in when placed at pc (switch
// padding depends on alignment).
func sizeAt(in *Instruction, pc int) int {
	info, _ := Lookup(in.Op)
	switch info.Kind {
	case OpNone:
		return 1
	case OpByte, OpCPByte, OpLocalByte:
		return 2
	case OpShort, OpBranch2, OpIinc, OpCPShort:
		return 3
	case OpMultianewarray:
		return 4
	case OpBranch4, OpInvokeInterface, OpInvokeDynamic:
		return 5
	case OpWide:
		if in.WideOp == Iinc {
			return 6
		}
		return 4
	case OpTableswitch:
		pad := (4 - (pc+1)%4) % 4
		return 1 + pad + 12 + len(in.SwitchOffsets)*4
	case OpLookupswitch:
		pad := (4 - (pc+1)%4) % 4
		return 1 + pad + 8 + len(in.SwitchKeys)*8
	}
	return 1
}

// Assemble assigns PCs to a logical instruction list (ignoring existing
// PC values) and resolves Branch fields from the Target* convention:
// callers set Branch to the *index* of the target instruction within ins
// when Relocate is true. It appends the encoded code array to dst, as
// Encode does, and returns the extended slice.
//
// This is the primitive the Jimple lowering uses: it builds instructions
// with index-based branches, then Assemble lays them out and converts
// indices to byte offsets (switch offsets likewise).
func Assemble(dst []byte, ins []*Instruction, relocate bool) ([]byte, error) {
	// First pass: assign PCs iteratively until stable (switch padding
	// depends on PC; sizes here are otherwise fixed).
	for pass := 0; pass < 4; pass++ {
		pc := 0
		changed := false
		for _, in := range ins {
			if in.PC != pc {
				in.PC = pc
				changed = true
			}
			s := sizeAt(in, pc)
			if in.size != s {
				in.size = s
				changed = true
			}
			pc += s
		}
		if !changed {
			break
		}
	}
	if relocate {
		// Second pass: convert index-based targets into byte offsets.
		for _, in := range ins {
			if in.Op.IsBranch() {
				idx := int(in.Branch)
				if idx < 0 || idx >= len(ins) {
					return nil, fmt.Errorf("bytecode: branch target index %d out of range", idx)
				}
				off := ins[idx].PC - in.PC
				if in.Op == Goto || in.Op == Jsr {
					if off > 32767 || off < -32768 {
						return nil, fmt.Errorf("bytecode: branch offset %d exceeds 16-bit range", off)
					}
				}
				in.Branch = int32(off)
			}
			if in.Op == Tableswitch || in.Op == Lookupswitch {
				di := int(in.SwitchDefault)
				if di < 0 || di >= len(ins) {
					return nil, fmt.Errorf("bytecode: switch default index %d out of range", di)
				}
				in.SwitchDefault = int32(ins[di].PC - in.PC)
				for i, t := range in.SwitchOffsets {
					ti := int(t)
					if ti < 0 || ti >= len(ins) {
						return nil, fmt.Errorf("bytecode: switch target index %d out of range", ti)
					}
					in.SwitchOffsets[i] = int32(ins[ti].PC - in.PC)
				}
			}
		}
	}
	return Encode(dst, ins)
}
