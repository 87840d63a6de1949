package jvm

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// lookup reads (id, key) the way a recorder-less VM does: (nil, true)
// for a remembered pass, the rejection for a remembered failure, or
// (nil, false) on a miss.
func lookup(m *VerifyMemo, id VerifyID, key MethodKey) (*Outcome, bool) {
	e, ok := m.probe(id, key, false)
	if !ok || e.ok {
		return nil, ok
	}
	return &e.out, true
}

// identVariants returns base followed by every ident that differs from
// it in exactly one place: each Policy field in turn, or the bound
// library release.
func identVariants(t *testing.T, base VerifyIdent) []VerifyIdent {
	t.Helper()
	out := []VerifyIdent{base}
	pv := reflect.ValueOf(&base.Spec.Policy).Elem()
	for i := 0; i < pv.NumField(); i++ {
		v := base
		f := reflect.ValueOf(&v.Spec.Policy).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("Policy.%s: kind %s has no variant", pv.Type().Field(i).Name, f.Kind())
		}
		out = append(out, v)
	}
	env := base
	env.Env = rtlib.JRE7
	return append(out, env)
}

// TestVerifyMemoIdentIsolation pins that a verdict stored under one
// verification context is never served to another: idents that differ
// only in one Policy field or in the library release get distinct IDs
// and miss each other's entries, while re-interning an equal ident
// returns the same ID.
func TestVerifyMemoIdentIsolation(t *testing.T) {
	base := VerifyIdent{Spec: HotSpot8(), Env: rtlib.JRE8}
	idents := identVariants(t, base)
	key := MethodKey{Lo: 0x1234, Hi: 0x5678}
	memo := NewVerifyMemo()
	seen := map[VerifyID]int{}
	for i, id := range idents {
		vid := memo.Intern(id)
		if j, dup := seen[vid]; dup {
			t.Fatalf("idents %d and %d share ID %d", j, i, vid)
		}
		seen[vid] = i
		if _, hit := lookup(memo, vid, key); hit {
			t.Fatalf("ident %d hit an entry stored under another ident", i)
		}
		// Ident i stores a rejection naming itself; only it may read it.
		memo.store(vid, key, "", &Outcome{Phase: PhaseLinking, Message: strconv.Itoa(i)}, nil, nil, false)
		if again := memo.Intern(id); again != vid {
			t.Fatalf("ident %d re-interned as %d, was %d", i, again, vid)
		}
	}
	for vid, i := range seen {
		out, hit := lookup(memo, vid, key)
		if !hit || out == nil || out.Message != strconv.Itoa(i) {
			t.Fatalf("ident %d reads %+v (hit %v), want its own verdict", i, out, hit)
		}
	}
	if memo.Len() != len(idents) {
		t.Fatalf("Len %d, want %d", memo.Len(), len(idents))
	}
}

// TestVerifyMemoConcurrentProbeStore drives one memo from several
// goroutines over several idents and overlapping keys while another
// goroutine rebinds its telemetry; run it under -race. Every key ends
// up stored exactly once and every hit returns that key's verdict.
func TestVerifyMemoConcurrentProbeStore(t *testing.T) {
	memo := NewVerifyMemo()
	idents := []VerifyIdent{
		{Spec: HotSpot9(), Env: rtlib.JRE9},
		{Spec: HotSpot9(), Env: rtlib.JRE8},
		{Spec: GIJ(), Env: rtlib.Classpath},
	}
	const keys, workers = 300, 8
	verdict := func(id VerifyID, k int) *Outcome {
		if k%3 == 0 {
			return nil
		}
		return &Outcome{Phase: PhaseLinking, Message: fmt.Sprint(id, "/", k)}
	}
	done := make(chan struct{})
	var rebinds sync.WaitGroup
	rebinds.Add(1)
	go func() {
		defer rebinds.Done()
		for {
			select {
			case <-done:
				return
			default:
				memo.UseTelemetry(telemetry.New())
				_ = memo.Stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < keys*len(idents); n++ {
				i := (n + w*keys/workers) % (keys * len(idents))
				id := memo.Intern(idents[i%len(idents)])
				k := i / len(idents)
				key := MethodKey{Lo: uint64(k) * 0x9e3779b97f4a7c15, Hi: uint64(k)}
				want := verdict(id, k)
				out, hit := lookup(memo, id, key)
				if !hit {
					memo.store(id, key, "", want, nil, nil, false)
					continue
				}
				if (out == nil) != (want == nil) || (out != nil && out.Message != want.Message) {
					t.Errorf("ident %d key %d: got %+v, want %+v", id, k, out, want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rebinds.Wait()
	if got, want := memo.Len(), keys*len(idents); got != want {
		t.Fatalf("Len %d, want %d distinct keys", got, want)
	}
}
