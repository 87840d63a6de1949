package jvm_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/jvm"
	"repro/internal/rtlib"
)

// TestSharedEnvConcurrentPresets: every VM of a release reads one
// shared rtlib.Env, so no run may write to it. Two VMs of each of the
// five presets run the memo corpus concurrently (under -race a write
// to a shared ClassInfo is a reported race); their outcomes must match
// a VM bound to a private Env, and afterwards every shared Env must
// still equal a freshly built one.
func TestSharedEnvConcurrentPresets(t *testing.T) {
	corpus := memoCorpus(t)
	specs := jvm.StandardFive()
	want := make([][]jvm.Outcome, len(specs))
	for si, spec := range specs {
		if got := jvm.New(spec).Env; got != rtlib.Shared(spec.Release) {
			t.Fatalf("%s: jvm.New does not bind the shared %s Env", spec.Name, spec.Release)
		}
		private := jvm.NewWithEnv(spec, rtlib.NewEnv(spec.Release))
		for _, data := range corpus {
			want[si] = append(want[si], private.Run(data))
		}
	}
	var wg sync.WaitGroup
	for si, spec := range specs {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(si int, spec jvm.Spec) {
				defer wg.Done()
				vm := jvm.New(spec)
				for ci, data := range corpus {
					if got := vm.Run(data); !reflect.DeepEqual(got, want[si][ci]) {
						t.Errorf("%s class %d: shared-Env outcome %+v, private-Env %+v", spec.Name, ci, got, want[si][ci])
						return
					}
				}
			}(si, spec)
		}
	}
	wg.Wait()
	for _, r := range []rtlib.Release{rtlib.JRE7, rtlib.JRE8, rtlib.JRE9, rtlib.Classpath} {
		shared, fresh := rtlib.Shared(r), rtlib.NewEnv(r)
		names := shared.ClassNames()
		if !reflect.DeepEqual(names, fresh.ClassNames()) {
			t.Fatalf("%s: the shared Env's classes changed", r)
		}
		for _, n := range names {
			a, _ := shared.Lookup(n)
			b, _ := fresh.Lookup(n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: shared ClassInfo %s changed: %+v, want %+v", r, n, a, b)
			}
		}
	}
}
