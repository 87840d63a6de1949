package bytecode

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDecodeSimpleSequence(t *testing.T) {
	// getstatic #12; ldc #4; invokevirtual #21; return
	code := []byte{
		0xb2, 0x00, 0x0c,
		0x12, 0x04,
		0xb6, 0x00, 0x15,
		0xb1,
	}
	ins, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 4 {
		t.Fatalf("got %d instructions, want 4", len(ins))
	}
	if ins[0].Op != Getstatic || ins[0].CPIndex != 12 || ins[0].PC != 0 {
		t.Errorf("bad getstatic: %+v", ins[0])
	}
	if ins[1].Op != Ldc || ins[1].CPIndex != 4 || ins[1].PC != 3 {
		t.Errorf("bad ldc: %+v", ins[1])
	}
	if ins[2].Op != Invokevirtual || ins[2].CPIndex != 21 || ins[2].PC != 5 {
		t.Errorf("bad invokevirtual: %+v", ins[2])
	}
	if ins[3].Op != Return || ins[3].PC != 8 {
		t.Errorf("bad return: %+v", ins[3])
	}
}

// targets lists in's branch targets through NumTargets and Target;
// nil when it has none.
func targets(in *Instruction) []int {
	var ts []int
	for k := range in.NumTargets() {
		ts = append(ts, in.Target(k))
	}
	return ts
}

func TestDecodeBranchTargets(t *testing.T) {
	// 0: iload_1; 1: ifeq +5 (-> 6); 4: iconst_0; 5: ireturn; 6: iconst_1; 7: ireturn
	code := []byte{0x1b, 0x99, 0x00, 0x05, 0x03, 0xac, 0x04, 0xac}
	ins, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if got := targets(ins[1]); !reflect.DeepEqual(got, []int{6}) {
		t.Errorf("ifeq targets = %v, want [6]", got)
	}
	if targets(ins[0]) != nil {
		t.Error("iload_1 must have no targets")
	}
}

func TestDecodeBipushSipushSigned(t *testing.T) {
	ins, err := Decode([]byte{0x10, 0xff, 0x11, 0xff, 0x80})
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].Imm != -1 {
		t.Errorf("bipush 0xff = %d, want -1", ins[0].Imm)
	}
	if ins[1].Imm != -128 {
		t.Errorf("sipush 0xff80 = %d, want -128", ins[1].Imm)
	}
}

func TestDecodeIinc(t *testing.T) {
	ins, err := Decode([]byte{0x84, 0x03, 0xfe})
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].Local != 3 || ins[0].Imm != -2 {
		t.Errorf("iinc decoded as local=%d imm=%d", ins[0].Local, ins[0].Imm)
	}
}

func TestDecodeWideForms(t *testing.T) {
	// wide iload 300
	ins, err := Decode([]byte{0xc4, 0x15, 0x01, 0x2c})
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].WideOp != Iload || ins[0].Local != 300 || ins[0].Size() != 4 {
		t.Errorf("wide iload: %+v", ins[0])
	}
	// wide iinc 300, -1000
	ins, err = Decode([]byte{0xc4, 0x84, 0x01, 0x2c, 0xfc, 0x18})
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].WideOp != Iinc || ins[0].Local != 300 || ins[0].Imm != -1000 || ins[0].Size() != 6 {
		t.Errorf("wide iinc: %+v", ins[0])
	}
	// invalid wide target
	if _, err := Decode([]byte{0xc4, 0x00}); err == nil {
		t.Error("wide nop must fail to decode")
	}
}

func TestDecodeTableswitch(t *testing.T) {
	// PC 0: tableswitch. Opcode at 0, pad to align operand at offset 4.
	code := []byte{
		0xaa,             // tableswitch at pc 0
		0x00, 0x00, 0x00, // padding
		0x00, 0x00, 0x00, 0x1c, // default +28
		0x00, 0x00, 0x00, 0x01, // low 1
		0x00, 0x00, 0x00, 0x03, // high 3
		0x00, 0x00, 0x00, 0x1c, // offsets
		0x00, 0x00, 0x00, 0x1d,
		0x00, 0x00, 0x00, 0x1e,
	}
	// Append filler so targets are in-range conceptually (decode doesn't check).
	dec, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	ins := dec[0]
	if ins.SwitchLow != 1 || ins.SwitchHigh != 3 || len(ins.SwitchOffsets) != 3 {
		t.Fatalf("tableswitch decoded wrong: %+v", ins)
	}
	if ins.Size() != 28 {
		t.Errorf("tableswitch size = %d, want 28", ins.Size())
	}
	wantTargets := []int{28, 28, 29, 30}
	if got := targets(ins); !reflect.DeepEqual(got, wantTargets) {
		t.Errorf("targets = %v, want %v", got, wantTargets)
	}
}

func TestDecodeLookupswitchSortedKeys(t *testing.T) {
	mk := func(k1, k2 int32) []byte {
		b := []byte{
			0xab,
			0, 0, 0, // pad
			0, 0, 0, 24, // default
			0, 0, 0, 2, // npairs
		}
		for _, k := range []int32{k1, k2} {
			b = append(b, byte(uint32(k)>>24), byte(uint32(k)>>16), byte(uint32(k)>>8), byte(uint32(k)))
			b = append(b, 0, 0, 0, 24)
		}
		return b
	}
	if dec, err := Decode(mk(1, 5)); err != nil {
		t.Errorf("sorted keys should decode: %v", err)
	} else if !reflect.DeepEqual(dec[0].SwitchKeys, []int32{1, 5}) || !reflect.DeepEqual(targets(dec[0]), []int{24, 24, 24}) {
		t.Errorf("lookupswitch decoded wrong: %+v", dec[0])
	}
	if _, err := Decode(mk(5, 1)); err == nil {
		t.Error("unsorted lookupswitch keys must be rejected")
	}
	if _, err := Decode(mk(3, 3)); err == nil {
		t.Error("duplicate lookupswitch keys must be rejected")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{0xb2},             // truncated getstatic
		{0x10},             // truncated bipush
		{0xcb},             // undefined opcode
		{0xc8, 0x00, 0x00}, // truncated goto_w
		{0xaa, 0x00},       // truncated tableswitch
	}
	for _, code := range cases {
		if _, err := Decode(code); err == nil {
			t.Errorf("Decode(% x) should fail", code)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	code := []byte{
		0x2a,             // aload_0
		0xb7, 0x00, 0x01, // invokespecial #1
		0x10, 0x2a, // bipush 42
		0x3c,             // istore_1
		0x84, 0x01, 0x01, // iinc 1,1
		0x1b,             // iload_1
		0x99, 0x00, 0x04, // ifeq +4
		0xb1,                   // return
		0xc4, 0x15, 0x01, 0x00, // wide iload 256
		0x57, // pop
		0xb1, // return
	}
	ins, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Encode(nil, ins)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, code) {
		t.Errorf("round trip mismatch:\n in  % x\n out % x", code, out)
	}
}

// TestPropertyDecodeEncodeRoundTrip generates random valid instruction
// streams and checks decode∘encode is the identity.
func TestPropertyDecodeEncodeRoundTrip(t *testing.T) {
	gen := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		n := 1 + rng.Intn(40)
		simple := []Opcode{Nop, Iconst0, Iconst1, Aload0, Dup, Pop, Iadd, Swap, Return, Athrow}
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				buf = append(buf, byte(simple[rng.Intn(len(simple))]))
			case 1:
				buf = append(buf, byte(Bipush), byte(rng.Intn(256)))
			case 2:
				buf = append(buf, byte(Sipush), byte(rng.Intn(256)), byte(rng.Intn(256)))
			case 3:
				buf = append(buf, byte(Iload), byte(rng.Intn(256)))
			case 4:
				buf = append(buf, byte(Getstatic), byte(rng.Intn(256)), byte(rng.Intn(256)))
			case 5:
				buf = append(buf, byte(Iinc), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
		}
		buf = append(buf, byte(Return))
		return buf
	}
	f := func(seed int64) bool {
		code := gen(seed)
		ins, err := Decode(code)
		if err != nil {
			return false
		}
		out, err := Encode(nil, ins)
		if err != nil {
			return false
		}
		return bytes.Equal(code, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssembleRelocation(t *testing.T) {
	// Build: [0] iconst_0, [1] ifeq -> index 3, [2] nop, [3] return
	ins := []*Instruction{
		{Op: Iconst0},
		{Op: Ifeq, Branch: 3}, // index of return
		{Op: Nop},
		{Op: Return},
	}
	code, err := Assemble(nil, ins, true)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec[1].Target(0); got != dec[3].PC {
		t.Errorf("branch resolves to %d, want %d", got, dec[3].PC)
	}
}

func TestAssembleTableswitchPadding(t *testing.T) {
	// A switch preceded by 1 byte: operands must be 4-aligned.
	ins := []*Instruction{
		{Op: Iconst1},
		{Op: Tableswitch, SwitchDefault: 3, SwitchLow: 0, SwitchHigh: 0, SwitchOffsets: []int32{2}},
		{Op: Nop},
		{Op: Return},
	}
	code, err := Assemble(nil, ins, true)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 {
		t.Fatalf("decoded %d instructions, want 4", len(dec))
	}
	ts := dec[1]
	if ts.Op != Tableswitch {
		t.Fatalf("instruction 1 is %s", ts.Op.Mnemonic())
	}
	if got := ts.PC + int(ts.SwitchDefault); got != dec[3].PC {
		t.Errorf("switch default lands at %d, want %d", got, dec[3].PC)
	}
	if got := ts.PC + int(ts.SwitchOffsets[0]); got != dec[2].PC {
		t.Errorf("switch case lands at %d, want %d", got, dec[2].PC)
	}
}

func TestAssembleBranchIndexOutOfRange(t *testing.T) {
	ins := []*Instruction{{Op: Goto, Branch: 99}}
	if _, err := Assemble(nil, ins, true); err == nil {
		t.Error("out-of-range branch index must fail")
	}
}

func TestInstructionString(t *testing.T) {
	ins, err := Decode([]byte{0xb6, 0x00, 0x15, 0xb1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ins[0].String(); got != "   0: invokevirtual #21" {
		t.Errorf("String() = %q", got)
	}
	if got := ins[1].String(); got != "   3: return" {
		t.Errorf("String() = %q", got)
	}
}
