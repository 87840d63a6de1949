package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
)

// wideLocalsClass is a liftable 975-byte class whose main declares
// max_locals 65535 over 801 instructions: a verifier footprint of about
// 52 million slots, which costs the reference VM 1.7 GB per run.
func wideLocalsClass(t *testing.T) []byte {
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
	return data
}

// TestSeedFootprintCap pins intake's footprint bound: a small class
// whose verifier footprint exceeds maxSeedFootprint gets a 400 before
// it is queued or classified, and the request allocates a small,
// stated amount rather than the verifier's gigabytes. Without the cap
// the submission is liftable and would be classified (run on the
// reference VM) and queued with a 202.
func TestSeedFootprintCap(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.SeedStrategy = "clustered"
	m := New(cfg)
	// The intake index Start would build, without starting the epochs
	// whose allocations would blur the measurement.
	idx, err := seedsel.New(seedgen.Generate(seedgen.DefaultOptions(cfg.SeedCount, cfg.Seed)),
		seedsel.Options{Strategy: seedsel.Clustered, RefSpec: m.cfg.RefSpec})
	if err != nil {
		t.Fatal(err)
	}
	m.seedIndex = idx

	data := wideLocalsClass(t)
	f, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := jvm.VerifyFootprint(f); n <= maxSeedFootprint {
		t.Fatalf("fixture footprint %d does not exceed the cap %d", n, maxSeedFootprint)
	}

	// One request stays well under 1 MiB, the size of the largest body
	// intake reads.
	const allocBound = 1 << 20
	h := m.handler()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/seeds", bytes.NewReader(data)))
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d-byte, over-footprint class: got %d (%s), want 400", len(data), rec.Code, rec.Body)
	}
	if n := len(m.queue); n != 0 {
		t.Fatalf("refused class was queued (depth %d)", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound {
		t.Fatalf("refusing a %d-byte class allocated %d bytes, bound %d", len(data), alloc, allocBound)
	}

	// A corpus seed under the cap is still queued and classified.
	seeds, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/seeds", bytes.NewReader(seeds[0])))
	if rec.Code != http.StatusAccepted || !bytes.Contains(rec.Body.Bytes(), []byte(`"cluster"`)) {
		t.Fatalf("corpus seed: got %d (%s), want 202 with a cluster", rec.Code, rec.Body)
	}
}
