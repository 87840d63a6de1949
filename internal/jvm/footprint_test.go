package jvm_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// wideLocalsFile writes a 978-byte class whose main declares
// max_locals 65535 over 801 instructions — a verifier footprint of
// about 52 million slots, 1.7 GB per verifier run — and returns its
// path.
func wideLocalsFile(t *testing.T) string {
	t.Helper()
	f := classfile.New("Wide")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	for i := 0; i < 400; i++ {
		cb.Op(bytecode.Iconst0).Op(bytecode.Pop)
	}
	cb.Op(bytecode.Return)
	cb.SetMaxStack(1).SetMaxLocals(65535)
	m.Attributes = append(m.Attributes, cb.Build())
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "Wide.class")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckFootprintRefusesOverCapFile pins the file-boundary check the
// daemon and the CLIs share: reading, parsing and refusing an over-cap
// file fails with ErrFootprint and allocates a small, stated amount,
// not the verifier's gigabytes. A generated seed passes.
func TestCheckFootprintRefusesOverCapFile(t *testing.T) {
	path := wideLocalsFile(t)
	const allocBound = 64 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	err = jvm.CheckFootprint(f)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, jvm.ErrFootprint) {
		t.Fatalf("%d-byte class with footprint %d: got %v, want ErrFootprint", len(data), jvm.VerifyFootprint(f), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound {
		t.Fatalf("refusing a %d-byte class allocated %d bytes, bound %d", len(data), alloc, allocBound)
	}

	seeds, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	f, err = classfile.Parse(seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := jvm.CheckFootprint(f); err != nil {
		t.Fatalf("generated seed refused: %v", err)
	}
}
