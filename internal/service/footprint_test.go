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

// wideLocalsClass is a liftable 978-byte class whose main declares
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

// intakeManager is an unstarted manager under cfg's seed strategy
// holding the intake index Start would build over the generated
// corpus: its handler classifies and queues submissions, and no epoch
// runs to blur an allocation measurement.
func intakeManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	m := New(cfg)
	m.strategy = seedsel.Strategy(cfg.SeedStrategy)
	idx, err := seedsel.New(seedgen.Generate(seedgen.DefaultOptions(cfg.SeedCount, cfg.Seed)),
		seedsel.Options{Strategy: m.strategy, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatal(err)
	}
	m.seedIndex = idx
	return m
}

// TestSeedFootprintCap pins intake's footprint bound: a small class
// whose verifier footprint exceeds jvm.MaxVerifyFootprint gets a 400 before
// it is queued or classified, and the request allocates a small,
// stated amount rather than the verifier's gigabytes. Without the cap
// the submission is liftable and would be classified (run on the
// reference VM) and queued with a 202.
func TestSeedFootprintCap(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.SeedStrategy = "clustered"
	m := intakeManager(t, cfg)

	data := wideLocalsClass(t)
	f, err := classfile.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := jvm.VerifyFootprint(f); n <= jvm.MaxVerifyFootprint {
		t.Fatalf("fixture footprint %d does not exceed the cap %d", n, jvm.MaxVerifyFootprint)
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

// intakeAllocBound bounds what one POST /api/seeds of an n-byte body
// may allocate (128 MiB plus 64 bytes per body byte): twice a run at
// both of the reference VM's caps, jvm.MaxVerifyFootprint 32-byte
// verifier slots and jvm.HeapBudget 32-byte array slots (a string byte
// is one budget unit too), plus the parse and lift of the body. A
// corpus seed takes about 50 KiB.
func intakeAllocBound(n int) uint64 {
	return 2*32*(jvm.MaxVerifyFootprint+jvm.HeapBudget) + 64*uint64(n)
}

// FuzzSeedIntake: POST /api/seeds takes untrusted bytes, and under a
// scheduling strategy runs every liftable one on the reference VM to
// classify it. Whatever the body, the handler of a clustered manager
// must not panic, must answer 202, 400, 413 or 429, and must allocate
// within intakeAllocBound. testdata/fuzz/FuzzSeedIntake holds corpus
// seeds (accepted), malformed and truncated classfiles, an empty body,
// an over-footprint class and a main that doubles a string 26 times.
func FuzzSeedIntake(f *testing.F) {
	cfg := testConfig(f, 1)
	cfg.SeedStrategy = "clustered"
	m := intakeManager(f, cfg)
	h := m.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/seeds", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		for len(m.queue) > 0 {
			<-m.queue // no intake worker runs: make room for the next 202
		}
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("%d-byte body: got %d (%s)", len(body), rec.Code, rec.Body)
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, intakeAllocBound(len(body)); alloc > bound {
			t.Fatalf("%d-byte body (answered %d) allocated %d bytes, bound %d", len(body), rec.Code, alloc, bound)
		}
	})
}
