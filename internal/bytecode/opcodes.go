// Package bytecode defines the JVM instruction set: opcode values,
// mnemonics, operand layouts, and a decoder/encoder for Code attribute
// bytes. It is the lowest layer of the classfile toolchain and has no
// dependencies beyond the standard library.
package bytecode

import "fmt"

// Opcode is a single JVM opcode byte.
type Opcode byte

// The complete JVM instruction set (JVMS §6.5) plus the three reserved
// opcodes. Values are the opcode bytes themselves.
const (
	Nop             Opcode = 0x00
	AconstNull      Opcode = 0x01
	IconstM1        Opcode = 0x02
	Iconst0         Opcode = 0x03
	Iconst1         Opcode = 0x04
	Iconst2         Opcode = 0x05
	Iconst3         Opcode = 0x06
	Iconst4         Opcode = 0x07
	Iconst5         Opcode = 0x08
	Lconst0         Opcode = 0x09
	Lconst1         Opcode = 0x0a
	Fconst0         Opcode = 0x0b
	Fconst1         Opcode = 0x0c
	Fconst2         Opcode = 0x0d
	Dconst0         Opcode = 0x0e
	Dconst1         Opcode = 0x0f
	Bipush          Opcode = 0x10
	Sipush          Opcode = 0x11
	Ldc             Opcode = 0x12
	LdcW            Opcode = 0x13
	Ldc2W           Opcode = 0x14
	Iload           Opcode = 0x15
	Lload           Opcode = 0x16
	Fload           Opcode = 0x17
	Dload           Opcode = 0x18
	Aload           Opcode = 0x19
	Iload0          Opcode = 0x1a
	Iload1          Opcode = 0x1b
	Iload2          Opcode = 0x1c
	Iload3          Opcode = 0x1d
	Lload0          Opcode = 0x1e
	Lload1          Opcode = 0x1f
	Lload2          Opcode = 0x20
	Lload3          Opcode = 0x21
	Fload0          Opcode = 0x22
	Fload1          Opcode = 0x23
	Fload2          Opcode = 0x24
	Fload3          Opcode = 0x25
	Dload0          Opcode = 0x26
	Dload1          Opcode = 0x27
	Dload2          Opcode = 0x28
	Dload3          Opcode = 0x29
	Aload0          Opcode = 0x2a
	Aload1          Opcode = 0x2b
	Aload2          Opcode = 0x2c
	Aload3          Opcode = 0x2d
	Iaload          Opcode = 0x2e
	Laload          Opcode = 0x2f
	Faload          Opcode = 0x30
	Daload          Opcode = 0x31
	Aaload          Opcode = 0x32
	Baload          Opcode = 0x33
	Caload          Opcode = 0x34
	Saload          Opcode = 0x35
	Istore          Opcode = 0x36
	Lstore          Opcode = 0x37
	Fstore          Opcode = 0x38
	Dstore          Opcode = 0x39
	Astore          Opcode = 0x3a
	Istore0         Opcode = 0x3b
	Istore1         Opcode = 0x3c
	Istore2         Opcode = 0x3d
	Istore3         Opcode = 0x3e
	Lstore0         Opcode = 0x3f
	Lstore1         Opcode = 0x40
	Lstore2         Opcode = 0x41
	Lstore3         Opcode = 0x42
	Fstore0         Opcode = 0x43
	Fstore1         Opcode = 0x44
	Fstore2         Opcode = 0x45
	Fstore3         Opcode = 0x46
	Dstore0         Opcode = 0x47
	Dstore1         Opcode = 0x48
	Dstore2         Opcode = 0x49
	Dstore3         Opcode = 0x4a
	Astore0         Opcode = 0x4b
	Astore1         Opcode = 0x4c
	Astore2         Opcode = 0x4d
	Astore3         Opcode = 0x4e
	Iastore         Opcode = 0x4f
	Lastore         Opcode = 0x50
	Fastore         Opcode = 0x51
	Dastore         Opcode = 0x52
	Aastore         Opcode = 0x53
	Bastore         Opcode = 0x54
	Castore         Opcode = 0x55
	Sastore         Opcode = 0x56
	Pop             Opcode = 0x57
	Pop2            Opcode = 0x58
	Dup             Opcode = 0x59
	DupX1           Opcode = 0x5a
	DupX2           Opcode = 0x5b
	Dup2            Opcode = 0x5c
	Dup2X1          Opcode = 0x5d
	Dup2X2          Opcode = 0x5e
	Swap            Opcode = 0x5f
	Iadd            Opcode = 0x60
	Ladd            Opcode = 0x61
	Fadd            Opcode = 0x62
	Dadd            Opcode = 0x63
	Isub            Opcode = 0x64
	Lsub            Opcode = 0x65
	Fsub            Opcode = 0x66
	Dsub            Opcode = 0x67
	Imul            Opcode = 0x68
	Lmul            Opcode = 0x69
	Fmul            Opcode = 0x6a
	Dmul            Opcode = 0x6b
	Idiv            Opcode = 0x6c
	Ldiv            Opcode = 0x6d
	Fdiv            Opcode = 0x6e
	Ddiv            Opcode = 0x6f
	Irem            Opcode = 0x70
	Lrem            Opcode = 0x71
	Frem            Opcode = 0x72
	Drem            Opcode = 0x73
	Ineg            Opcode = 0x74
	Lneg            Opcode = 0x75
	Fneg            Opcode = 0x76
	Dneg            Opcode = 0x77
	Ishl            Opcode = 0x78
	Lshl            Opcode = 0x79
	Ishr            Opcode = 0x7a
	Lshr            Opcode = 0x7b
	Iushr           Opcode = 0x7c
	Lushr           Opcode = 0x7d
	Iand            Opcode = 0x7e
	Land            Opcode = 0x7f
	Ior             Opcode = 0x80
	Lor             Opcode = 0x81
	Ixor            Opcode = 0x82
	Lxor            Opcode = 0x83
	Iinc            Opcode = 0x84
	I2l             Opcode = 0x85
	I2f             Opcode = 0x86
	I2d             Opcode = 0x87
	L2i             Opcode = 0x88
	L2f             Opcode = 0x89
	L2d             Opcode = 0x8a
	F2i             Opcode = 0x8b
	F2l             Opcode = 0x8c
	F2d             Opcode = 0x8d
	D2i             Opcode = 0x8e
	D2l             Opcode = 0x8f
	D2f             Opcode = 0x90
	I2b             Opcode = 0x91
	I2c             Opcode = 0x92
	I2s             Opcode = 0x93
	Lcmp            Opcode = 0x94
	Fcmpl           Opcode = 0x95
	Fcmpg           Opcode = 0x96
	Dcmpl           Opcode = 0x97
	Dcmpg           Opcode = 0x98
	Ifeq            Opcode = 0x99
	Ifne            Opcode = 0x9a
	Iflt            Opcode = 0x9b
	Ifge            Opcode = 0x9c
	Ifgt            Opcode = 0x9d
	Ifle            Opcode = 0x9e
	IfIcmpeq        Opcode = 0x9f
	IfIcmpne        Opcode = 0xa0
	IfIcmplt        Opcode = 0xa1
	IfIcmpge        Opcode = 0xa2
	IfIcmpgt        Opcode = 0xa3
	IfIcmple        Opcode = 0xa4
	IfAcmpeq        Opcode = 0xa5
	IfAcmpne        Opcode = 0xa6
	Goto            Opcode = 0xa7
	Jsr             Opcode = 0xa8
	Ret             Opcode = 0xa9
	Tableswitch     Opcode = 0xaa
	Lookupswitch    Opcode = 0xab
	Ireturn         Opcode = 0xac
	Lreturn         Opcode = 0xad
	Freturn         Opcode = 0xae
	Dreturn         Opcode = 0xaf
	Areturn         Opcode = 0xb0
	Return          Opcode = 0xb1
	Getstatic       Opcode = 0xb2
	Putstatic       Opcode = 0xb3
	Getfield        Opcode = 0xb4
	Putfield        Opcode = 0xb5
	Invokevirtual   Opcode = 0xb6
	Invokespecial   Opcode = 0xb7
	Invokestatic    Opcode = 0xb8
	Invokeinterface Opcode = 0xb9
	Invokedynamic   Opcode = 0xba
	New             Opcode = 0xbb
	Newarray        Opcode = 0xbc
	Anewarray       Opcode = 0xbd
	Arraylength     Opcode = 0xbe
	Athrow          Opcode = 0xbf
	Checkcast       Opcode = 0xc0
	Instanceof      Opcode = 0xc1
	Monitorenter    Opcode = 0xc2
	Monitorexit     Opcode = 0xc3
	Wide            Opcode = 0xc4
	Multianewarray  Opcode = 0xc5
	Ifnull          Opcode = 0xc6
	Ifnonnull       Opcode = 0xc7
	GotoW           Opcode = 0xc8
	JsrW            Opcode = 0xc9
	Breakpoint      Opcode = 0xca
	Impdep1         Opcode = 0xfe
	Impdep2         Opcode = 0xff
)

// OperandKind describes how an instruction's operand bytes are laid out.
type OperandKind uint8

const (
	// OpNone: no operand bytes.
	OpNone OperandKind = iota
	// OpByte: one signed or unsigned byte (bipush, newarray, local index forms).
	OpByte
	// OpShort: one signed 16-bit value (sipush).
	OpShort
	// OpCPByte: one-byte constant-pool index (ldc).
	OpCPByte
	// OpCPShort: two-byte constant-pool index.
	OpCPShort
	// OpLocalByte: one-byte local-variable index.
	OpLocalByte
	// OpBranch2: signed 16-bit branch offset.
	OpBranch2
	// OpBranch4: signed 32-bit branch offset (goto_w, jsr_w).
	OpBranch4
	// OpIinc: local index byte + signed const byte.
	OpIinc
	// OpInvokeInterface: cp index (2) + count byte + zero byte.
	OpInvokeInterface
	// OpInvokeDynamic: cp index (2) + two zero bytes.
	OpInvokeDynamic
	// OpMultianewarray: cp index (2) + dimensions byte.
	OpMultianewarray
	// OpTableswitch: padded variable-length table switch.
	OpTableswitch
	// OpLookupswitch: padded variable-length lookup switch.
	OpLookupswitch
	// OpWide: modified opcode + widened operands.
	OpWide
)

// Info describes a single opcode's static properties.
type Info struct {
	Op       Opcode
	Mnemonic string
	Kind     OperandKind
	// Pop and Push are the operand-stack slot deltas for fixed-effect
	// instructions (category-2 values count as 2 slots). Variable-effect
	// instructions (invokes, field access, multianewarray, switch pops)
	// carry -1 in Pop and are resolved against descriptors by callers.
	Pop  int8
	Push int8
}

// VariableStack marks Pop/Push values that depend on a symbolic descriptor.
const VariableStack = int8(-1)

var infos = [256]Info{}

func register(op Opcode, mnemonic string, kind OperandKind, pop, push int8) {
	infos[op] = Info{Op: op, Mnemonic: mnemonic, Kind: kind, Pop: pop, Push: push}
}

func init() {
	register(Nop, "nop", OpNone, 0, 0)
	register(AconstNull, "aconst_null", OpNone, 0, 1)
	register(IconstM1, "iconst_m1", OpNone, 0, 1)
	register(Iconst0, "iconst_0", OpNone, 0, 1)
	register(Iconst1, "iconst_1", OpNone, 0, 1)
	register(Iconst2, "iconst_2", OpNone, 0, 1)
	register(Iconst3, "iconst_3", OpNone, 0, 1)
	register(Iconst4, "iconst_4", OpNone, 0, 1)
	register(Iconst5, "iconst_5", OpNone, 0, 1)
	register(Lconst0, "lconst_0", OpNone, 0, 2)
	register(Lconst1, "lconst_1", OpNone, 0, 2)
	register(Fconst0, "fconst_0", OpNone, 0, 1)
	register(Fconst1, "fconst_1", OpNone, 0, 1)
	register(Fconst2, "fconst_2", OpNone, 0, 1)
	register(Dconst0, "dconst_0", OpNone, 0, 2)
	register(Dconst1, "dconst_1", OpNone, 0, 2)
	register(Bipush, "bipush", OpByte, 0, 1)
	register(Sipush, "sipush", OpShort, 0, 1)
	register(Ldc, "ldc", OpCPByte, 0, 1)
	register(LdcW, "ldc_w", OpCPShort, 0, 1)
	register(Ldc2W, "ldc2_w", OpCPShort, 0, 2)
	register(Iload, "iload", OpLocalByte, 0, 1)
	register(Lload, "lload", OpLocalByte, 0, 2)
	register(Fload, "fload", OpLocalByte, 0, 1)
	register(Dload, "dload", OpLocalByte, 0, 2)
	register(Aload, "aload", OpLocalByte, 0, 1)
	for i := Opcode(0); i < 4; i++ {
		register(Iload0+i, fmt.Sprintf("iload_%d", i), OpNone, 0, 1)
		register(Lload0+i, fmt.Sprintf("lload_%d", i), OpNone, 0, 2)
		register(Fload0+i, fmt.Sprintf("fload_%d", i), OpNone, 0, 1)
		register(Dload0+i, fmt.Sprintf("dload_%d", i), OpNone, 0, 2)
		register(Aload0+i, fmt.Sprintf("aload_%d", i), OpNone, 0, 1)
		register(Istore0+i, fmt.Sprintf("istore_%d", i), OpNone, 1, 0)
		register(Lstore0+i, fmt.Sprintf("lstore_%d", i), OpNone, 2, 0)
		register(Fstore0+i, fmt.Sprintf("fstore_%d", i), OpNone, 1, 0)
		register(Dstore0+i, fmt.Sprintf("dstore_%d", i), OpNone, 2, 0)
		register(Astore0+i, fmt.Sprintf("astore_%d", i), OpNone, 1, 0)
	}
	register(Iaload, "iaload", OpNone, 2, 1)
	register(Laload, "laload", OpNone, 2, 2)
	register(Faload, "faload", OpNone, 2, 1)
	register(Daload, "daload", OpNone, 2, 2)
	register(Aaload, "aaload", OpNone, 2, 1)
	register(Baload, "baload", OpNone, 2, 1)
	register(Caload, "caload", OpNone, 2, 1)
	register(Saload, "saload", OpNone, 2, 1)
	register(Istore, "istore", OpLocalByte, 1, 0)
	register(Lstore, "lstore", OpLocalByte, 2, 0)
	register(Fstore, "fstore", OpLocalByte, 1, 0)
	register(Dstore, "dstore", OpLocalByte, 2, 0)
	register(Astore, "astore", OpLocalByte, 1, 0)
	register(Iastore, "iastore", OpNone, 3, 0)
	register(Lastore, "lastore", OpNone, 4, 0)
	register(Fastore, "fastore", OpNone, 3, 0)
	register(Dastore, "dastore", OpNone, 4, 0)
	register(Aastore, "aastore", OpNone, 3, 0)
	register(Bastore, "bastore", OpNone, 3, 0)
	register(Castore, "castore", OpNone, 3, 0)
	register(Sastore, "sastore", OpNone, 3, 0)
	register(Pop, "pop", OpNone, 1, 0)
	register(Pop2, "pop2", OpNone, 2, 0)
	register(Dup, "dup", OpNone, 1, 2)
	register(DupX1, "dup_x1", OpNone, 2, 3)
	register(DupX2, "dup_x2", OpNone, 3, 4)
	register(Dup2, "dup2", OpNone, 2, 4)
	register(Dup2X1, "dup2_x1", OpNone, 3, 5)
	register(Dup2X2, "dup2_x2", OpNone, 4, 6)
	register(Swap, "swap", OpNone, 2, 2)
	register(Iadd, "iadd", OpNone, 2, 1)
	register(Ladd, "ladd", OpNone, 4, 2)
	register(Fadd, "fadd", OpNone, 2, 1)
	register(Dadd, "dadd", OpNone, 4, 2)
	register(Isub, "isub", OpNone, 2, 1)
	register(Lsub, "lsub", OpNone, 4, 2)
	register(Fsub, "fsub", OpNone, 2, 1)
	register(Dsub, "dsub", OpNone, 4, 2)
	register(Imul, "imul", OpNone, 2, 1)
	register(Lmul, "lmul", OpNone, 4, 2)
	register(Fmul, "fmul", OpNone, 2, 1)
	register(Dmul, "dmul", OpNone, 4, 2)
	register(Idiv, "idiv", OpNone, 2, 1)
	register(Ldiv, "ldiv", OpNone, 4, 2)
	register(Fdiv, "fdiv", OpNone, 2, 1)
	register(Ddiv, "ddiv", OpNone, 4, 2)
	register(Irem, "irem", OpNone, 2, 1)
	register(Lrem, "lrem", OpNone, 4, 2)
	register(Frem, "frem", OpNone, 2, 1)
	register(Drem, "drem", OpNone, 4, 2)
	register(Ineg, "ineg", OpNone, 1, 1)
	register(Lneg, "lneg", OpNone, 2, 2)
	register(Fneg, "fneg", OpNone, 1, 1)
	register(Dneg, "dneg", OpNone, 2, 2)
	register(Ishl, "ishl", OpNone, 2, 1)
	register(Lshl, "lshl", OpNone, 3, 2)
	register(Ishr, "ishr", OpNone, 2, 1)
	register(Lshr, "lshr", OpNone, 3, 2)
	register(Iushr, "iushr", OpNone, 2, 1)
	register(Lushr, "lushr", OpNone, 3, 2)
	register(Iand, "iand", OpNone, 2, 1)
	register(Land, "land", OpNone, 4, 2)
	register(Ior, "ior", OpNone, 2, 1)
	register(Lor, "lor", OpNone, 4, 2)
	register(Ixor, "ixor", OpNone, 2, 1)
	register(Lxor, "lxor", OpNone, 4, 2)
	register(Iinc, "iinc", OpIinc, 0, 0)
	register(I2l, "i2l", OpNone, 1, 2)
	register(I2f, "i2f", OpNone, 1, 1)
	register(I2d, "i2d", OpNone, 1, 2)
	register(L2i, "l2i", OpNone, 2, 1)
	register(L2f, "l2f", OpNone, 2, 1)
	register(L2d, "l2d", OpNone, 2, 2)
	register(F2i, "f2i", OpNone, 1, 1)
	register(F2l, "f2l", OpNone, 1, 2)
	register(F2d, "f2d", OpNone, 1, 2)
	register(D2i, "d2i", OpNone, 2, 1)
	register(D2l, "d2l", OpNone, 2, 2)
	register(D2f, "d2f", OpNone, 2, 1)
	register(I2b, "i2b", OpNone, 1, 1)
	register(I2c, "i2c", OpNone, 1, 1)
	register(I2s, "i2s", OpNone, 1, 1)
	register(Lcmp, "lcmp", OpNone, 4, 1)
	register(Fcmpl, "fcmpl", OpNone, 2, 1)
	register(Fcmpg, "fcmpg", OpNone, 2, 1)
	register(Dcmpl, "dcmpl", OpNone, 4, 1)
	register(Dcmpg, "dcmpg", OpNone, 4, 1)
	register(Ifeq, "ifeq", OpBranch2, 1, 0)
	register(Ifne, "ifne", OpBranch2, 1, 0)
	register(Iflt, "iflt", OpBranch2, 1, 0)
	register(Ifge, "ifge", OpBranch2, 1, 0)
	register(Ifgt, "ifgt", OpBranch2, 1, 0)
	register(Ifle, "ifle", OpBranch2, 1, 0)
	register(IfIcmpeq, "if_icmpeq", OpBranch2, 2, 0)
	register(IfIcmpne, "if_icmpne", OpBranch2, 2, 0)
	register(IfIcmplt, "if_icmplt", OpBranch2, 2, 0)
	register(IfIcmpge, "if_icmpge", OpBranch2, 2, 0)
	register(IfIcmpgt, "if_icmpgt", OpBranch2, 2, 0)
	register(IfIcmple, "if_icmple", OpBranch2, 2, 0)
	register(IfAcmpeq, "if_acmpeq", OpBranch2, 2, 0)
	register(IfAcmpne, "if_acmpne", OpBranch2, 2, 0)
	register(Goto, "goto", OpBranch2, 0, 0)
	register(Jsr, "jsr", OpBranch2, 0, 1)
	register(Ret, "ret", OpLocalByte, 0, 0)
	register(Tableswitch, "tableswitch", OpTableswitch, 1, 0)
	register(Lookupswitch, "lookupswitch", OpLookupswitch, 1, 0)
	register(Ireturn, "ireturn", OpNone, 1, 0)
	register(Lreturn, "lreturn", OpNone, 2, 0)
	register(Freturn, "freturn", OpNone, 1, 0)
	register(Dreturn, "dreturn", OpNone, 2, 0)
	register(Areturn, "areturn", OpNone, 1, 0)
	register(Return, "return", OpNone, 0, 0)
	register(Getstatic, "getstatic", OpCPShort, 0, VariableStack)
	register(Putstatic, "putstatic", OpCPShort, VariableStack, 0)
	register(Getfield, "getfield", OpCPShort, 1, VariableStack)
	register(Putfield, "putfield", OpCPShort, VariableStack, 0)
	register(Invokevirtual, "invokevirtual", OpCPShort, VariableStack, VariableStack)
	register(Invokespecial, "invokespecial", OpCPShort, VariableStack, VariableStack)
	register(Invokestatic, "invokestatic", OpCPShort, VariableStack, VariableStack)
	register(Invokeinterface, "invokeinterface", OpInvokeInterface, VariableStack, VariableStack)
	register(Invokedynamic, "invokedynamic", OpInvokeDynamic, VariableStack, VariableStack)
	register(New, "new", OpCPShort, 0, 1)
	register(Newarray, "newarray", OpByte, 1, 1)
	register(Anewarray, "anewarray", OpCPShort, 1, 1)
	register(Arraylength, "arraylength", OpNone, 1, 1)
	register(Athrow, "athrow", OpNone, 1, 0)
	register(Checkcast, "checkcast", OpCPShort, 1, 1)
	register(Instanceof, "instanceof", OpCPShort, 1, 1)
	register(Monitorenter, "monitorenter", OpNone, 1, 0)
	register(Monitorexit, "monitorexit", OpNone, 1, 0)
	register(Wide, "wide", OpWide, 0, 0)
	register(Multianewarray, "multianewarray", OpMultianewarray, VariableStack, 1)
	register(Ifnull, "ifnull", OpBranch2, 1, 0)
	register(Ifnonnull, "ifnonnull", OpBranch2, 1, 0)
	register(GotoW, "goto_w", OpBranch4, 0, 0)
	register(JsrW, "jsr_w", OpBranch4, 0, 1)
	register(Breakpoint, "breakpoint", OpNone, 0, 0)
	register(Impdep1, "impdep1", OpNone, 0, 0)
	register(Impdep2, "impdep2", OpNone, 0, 0)
}

// Lookup returns the Info for op and whether op is a defined JVM opcode.
func Lookup(op Opcode) (Info, bool) {
	in := infos[op]
	return in, in.Mnemonic != ""
}

// Mnemonic returns the assembler name of op, or a hex placeholder for
// undefined opcode bytes.
func (op Opcode) Mnemonic() string {
	if in, ok := Lookup(op); ok {
		return in.Mnemonic
	}
	return fmt.Sprintf("op_0x%02x", byte(op))
}

// IsBranch reports whether op transfers control to an explicit offset
// operand (conditional branches, goto, jsr and the wide forms).
func (op Opcode) IsBranch() bool {
	in, ok := Lookup(op)
	return ok && (in.Kind == OpBranch2 || in.Kind == OpBranch4)
}

// IsConditionalBranch reports whether op is a two-way conditional branch.
func (op Opcode) IsConditionalBranch() bool {
	switch op {
	case Ifeq, Ifne, Iflt, Ifge, Ifgt, Ifle,
		IfIcmpeq, IfIcmpne, IfIcmplt, IfIcmpge, IfIcmpgt, IfIcmple,
		IfAcmpeq, IfAcmpne, Ifnull, Ifnonnull:
		return true
	}
	return false
}

// IsReturn reports whether op terminates the method normally.
func (op Opcode) IsReturn() bool {
	switch op {
	case Ireturn, Lreturn, Freturn, Dreturn, Areturn, Return:
		return true
	}
	return false
}

// IsInvoke reports whether op is any of the five invocation instructions.
func (op Opcode) IsInvoke() bool {
	switch op {
	case Invokevirtual, Invokespecial, Invokestatic, Invokeinterface, Invokedynamic:
		return true
	}
	return false
}

// EndsBlock reports whether control cannot fall through past op
// (returns, athrow, goto, switches, ret).
func (op Opcode) EndsBlock() bool {
	if op.IsReturn() {
		return true
	}
	switch op {
	case Goto, GotoW, Athrow, Tableswitch, Lookupswitch, Ret:
		return true
	}
	return false
}

// ArrayTypeCode is the operand of newarray (JVMS Table 6.5.newarray-A).
type ArrayTypeCode byte

// newarray atype operand values.
const (
	TBoolean ArrayTypeCode = 4
	TChar    ArrayTypeCode = 5
	TFloat   ArrayTypeCode = 6
	TDouble  ArrayTypeCode = 7
	TByte    ArrayTypeCode = 8
	TShort   ArrayTypeCode = 9
	TInt     ArrayTypeCode = 10
	TLong    ArrayTypeCode = 11
)

// Valid reports whether c is one of the eight defined newarray type codes.
func (c ArrayTypeCode) Valid() bool { return c >= TBoolean && c <= TLong }

// Descriptor returns the array element descriptor character for c.
func (c ArrayTypeCode) Descriptor() string {
	switch c {
	case TBoolean:
		return "Z"
	case TChar:
		return "C"
	case TFloat:
		return "F"
	case TDouble:
		return "D"
	case TByte:
		return "B"
	case TShort:
		return "S"
	case TInt:
		return "I"
	case TLong:
		return "J"
	}
	return "?"
}
