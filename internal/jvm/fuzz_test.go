package jvm_test

import (
	"runtime"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// Allocation bound of one FuzzVerify input, per preset: a fixed cost
// for the VM and its scratch, plus a share per input byte (decoding,
// descriptors, messages) and per footprint slot (one entry frame of
// 32-byte slots per instruction, with slice-growth headroom).
const (
	fuzzAllocBase    = 256 << 10
	fuzzAllocPerByte = 512
	fuzzAllocPerSlot = 96
)

// FuzzVerify runs every method of a parsed input through
// jvm.VM.VerifyMethod on all five presets. The verifier must never
// panic, and the input must allocate within a bound linear in its size
// and verifier footprint. Under plain `go test` the generated seed
// corpus and testdata/fuzz/FuzzVerify run; `go test -fuzz=FuzzVerify`
// explores mutated bytes.
func FuzzVerify(f *testing.F) {
	seeds, err := seedgen.GenerateFiles(seedgen.DefaultOptions(25, 20160613))
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	specs := jvm.StandardFive()

	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return // not a parseable classfile; verification never runs
		}
		// No VM runs a file over the footprint cap, so neither does
		// the fuzzer.
		if err := jvm.CheckFootprint(cf); err != nil {
			t.Skip(err)
		}
		footprint := jvm.VerifyFootprint(cf)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, spec := range specs {
			vm := jvm.New(spec)
			for _, m := range cf.Methods {
				if m.Code() != nil {
					vm.VerifyMethod(cf, m)
				}
			}
		}
		runtime.ReadMemStats(&after)
		bound := uint64(len(specs)) * (fuzzAllocBase + fuzzAllocPerByte*uint64(len(data)) + fuzzAllocPerSlot*uint64(footprint))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
			t.Fatalf("%d-byte input with footprint %d allocated %d bytes, bound %d", len(data), footprint, alloc, bound)
		}
	})
}
