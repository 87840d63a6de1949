package jvm

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/telemetry"
)

// withCode gives m a body of the given bytes.
func withCode(m *classfile.Member, maxStack, maxLocals uint16, code ...byte) {
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{MaxStack: maxStack, MaxLocals: maxLocals, Code: code})
}

// TestMemberKeysDoNotCollide pins that every per-run member table keys
// on the parts of a member's identity, not on their concatenation: a
// name may contain the characters a joined key would use as glue, so
// m( + I)V and m + (I)V are distinct methods, a:I + I and a + I:I
// distinct fields.
func TestMemberKeysDoNotCollide(t *testing.T) {
	t.Run("loader/methods", func(t *testing.T) {
		// GIJ checks duplicate methods but not name validity.
		build := func(sigs ...[2]string) *classfile.File {
			f := helloClass("KeyM")
			for _, s := range sigs {
				f.AddMethod(classfile.AccPublic|classfile.AccStatic, s[0], s[1])
			}
			return f
		}
		a, b := [2]string{"m(", "I)V"}, [2]string{"m", "(I)V"}
		for _, f := range []*classfile.File{build(a), build(b), build(a, b)} {
			if o := loadOn(t, GIJ(), f); !o.OK() {
				t.Errorf("%d methods: %s", len(f.Methods), o)
			}
		}
		// A true duplicate still fails.
		wantLoadCFE(t, loadOn(t, GIJ(), build(b, b)), "duplicate m(I)V")
	})

	t.Run("loader/fields", func(t *testing.T) {
		spec := GIJ()
		spec.Policy.CheckDuplicateFields = true
		f := helloClass("KeyF")
		f.AddField(classfile.AccPublic|classfile.AccStatic, "a:I", "I")
		f.AddField(classfile.AccPublic|classfile.AccStatic, "a", "I:I")
		if o := loadOn(t, spec, f); !o.OK() {
			t.Errorf("fields (a:I, I) and (a, I:I): %s", o)
		}
		f.AddField(classfile.AccPublic|classfile.AccStatic, "a", "I:I")
		wantLoadCFE(t, loadOn(t, spec, f), "duplicate field a:I:I")
	})

	t.Run("verified", func(t *testing.T) {
		// GIJ verifies lazily, remembering each verdict for the run. The
		// first method underflows the stack; the second is a bare return.
		f := helloClass("KeyV")
		bad := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "m(", "I)V")
		withCode(bad, 2, 1, byte(bytecode.Iadd), byte(bytecode.Return))
		good := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "m", "(I)V")
		withCode(good, 0, 1, byte(bytecode.Return))
		vm := New(GIJ())
		ex := vm.execFor(f)
		if vm.verifyMethod(ex, bad) == nil {
			t.Fatal("stack underflow verified")
		}
		if out := vm.verifyMethod(ex, good); out != nil {
			t.Errorf("m(I)V inherited m( + I)V's verdict: %s", out)
		}
	})

	t.Run("statics", func(t *testing.T) {
		// The verifier rejects a malformed field descriptor before any
		// run reaches it, so drive the field opcodes directly: store 7
		// into a:I (type I), then read a (type I:I), never written.
		f := helloClass("KeyS")
		f.AddField(classfile.AccPublic|classfile.AccStatic, "a:I", "I")
		f.AddField(classfile.AccPublic|classfile.AccStatic, "a", "I:I")
		put := &bytecode.Instruction{Op: bytecode.Putstatic, CPIndex: f.Pool.AddFieldref("KeyS", "a:I", "I")}
		get := &bytecode.Instruction{Op: bytecode.Getstatic, CPIndex: f.Pool.AddFieldref("KeyS", "a", "I:I")}
		ex := New(GIJ()).execFor(f)
		stack := []value{intVal(7)}
		if jt := ex.interpField(put.Op, put, &stack); jt != nil {
			t.Fatalf("putstatic: %s", jt.msg)
		}
		if jt := ex.interpField(get.Op, get, &stack); jt != nil {
			t.Fatalf("getstatic: %s", jt.msg)
		}
		if len(stack) != 1 || stack[0] != intVal(0) {
			t.Errorf("a:I:I read back %+v, want the zero value", stack)
		}
	})
}

// TestOutputSurvivesReuse pins that a VM's reused run state never
// reaches a returned Outcome: a later run on the same VM leaves an
// earlier outcome's output as it was.
func TestOutputSurvivesReuse(t *testing.T) {
	vm := New(HotSpot8())
	run := func(msg string) Outcome {
		f := classfile.New("Reuse")
		classfile.AttachDefaultInit(f)
		classfile.AttachStandardMain(f, msg)
		data, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return vm.Run(data)
	}
	first := run("first")
	second := run("second")
	if len(first.Output) != 1 || first.Output[0] != "first" {
		t.Errorf("first output became %q after a second run", first.Output)
	}
	if len(second.Output) != 1 || second.Output[0] != "second" {
		t.Errorf("second output %q", second.Output)
	}
}

// TestRejectStep pins RejectStep on the timed and untimed paths: the
// step that rejected the last run, whatever phase the outcome reports,
// reset by every run of a reused VM.
func TestRejectStep(t *testing.T) {
	build := func(name string, edit func(*classfile.File)) []byte {
		f := helloClass(name)
		if edit != nil {
			edit(f)
		}
		data, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name  string
		data  []byte
		step  Step
		phase Phase
	}{
		{"garbage", []byte{0xca, 0xfe}, StepLoad, PhaseLoading},
		{"old-version", build("RsOld", func(f *classfile.File) { f.Major = 40 }), StepLoad, PhaseLoading},
		{"missing-super", build("RsMissing", func(f *classfile.File) { f.SuperClass = f.Pool.AddClass("no/such/Super") }), StepLink, PhaseLoading},
		{"final-super", build("RsFinal", func(f *classfile.File) { f.SuperClass = f.Pool.AddClass("java/lang/String") }), StepLink, PhaseLinking},
		{"clean", build("RsOK", nil), StepNone, PhaseInvoked},
	}
	for _, timed := range []bool{false, true} {
		vm := New(HotSpot9())
		if timed {
			vm.SetTelemetry(telemetry.New())
		}
		// Every case twice, in order, so each run follows a different
		// verdict on the same VM.
		for i := 0; i < 2*len(cases); i++ {
			c := cases[i%len(cases)]
			out := vm.Run(c.data)
			if got := vm.RejectStep(); got != c.step || out.Phase != c.phase {
				t.Errorf("timed=%v %s: step %d phase %s, want step %d phase %s", timed, c.name, got, out.Phase, c.step, c.phase)
			}
		}
	}
}
