package jvm_test

import (
	"runtime"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// fuzzFootprintCap is the daemon's intake cap on jvm.VerifyFootprint
// (service.maxSeedFootprint): no VM ever runs a submission above it, so
// FuzzVerify skips such inputs instead of allocating for them.
const fuzzFootprintCap = 1 << 20

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
		footprint := jvm.VerifyFootprint(cf)
		if footprint > fuzzFootprintCap {
			t.Skipf("verifier footprint %d exceeds the intake cap", footprint)
		}
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
