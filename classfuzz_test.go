package classfuzz

import (
	"strings"
	"testing"
)

func TestEndToEndWorkflow(t *testing.T) {
	// The Figure 1 pipeline through the public API only.
	seeds := GenerateSeeds(20, 9)
	if len(seeds) != 20 {
		t.Fatalf("seeds: %d", len(seeds))
	}
	res, err := RunCampaign(DefaultCampaign(seeds, 150))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Test) == 0 {
		t.Fatal("campaign accepted nothing")
	}
	var classes [][]byte
	for _, g := range res.Test {
		classes = append(classes, g.Data)
	}
	sum := DiffTest(classes)
	if sum.Total != len(classes) {
		t.Errorf("summary covers %d of %d", sum.Total, len(classes))
	}
	if sum.Discrepancies == 0 {
		t.Error("no discrepancies found by the representative suite")
	}
}

func TestMutatorsExposed(t *testing.T) {
	ms := Mutators()
	if len(ms) != NumMutators || NumMutators != 129 {
		t.Fatalf("%d mutators", len(ms))
	}
}

func TestCompileDecompileRoundTrip(t *testing.T) {
	seeds := GenerateSeeds(5, 4)
	for _, c := range seeds {
		data, err := Compile(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		back, err := Decompile(data)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if back.Name != c.Name || back.Super != c.Super {
			t.Errorf("%s: identity lost", c.Name)
		}
		if !strings.Contains(PrintClass(back), back.Name) {
			t.Error("PrintClass missing class name")
		}
		dump, err := DumpClassfile(data)
		if err != nil || !strings.Contains(dump, "major version") {
			t.Errorf("dump: %v", err)
		}
	}
}

func TestStandardVMsRunSeeds(t *testing.T) {
	vms := StandardVMs()
	if len(vms) != 5 {
		t.Fatalf("%d VMs", len(vms))
	}
	data, err := GenerateSeedFiles(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		o := vm.Run(data[0])
		_ = o.String()
	}
}

func TestSharedEnvRunnerFactory(t *testing.T) {
	for _, rel := range []string{"jre7", "jre8", "jre9", "classpath"} {
		if _, err := NewSharedEnvRunner(rel); err != nil {
			t.Errorf("%s: %v", rel, err)
		}
	}
	if _, err := NewSharedEnvRunner("jre99"); err == nil {
		t.Error("unknown release must error")
	}
}

func TestReduceClassThroughFacade(t *testing.T) {
	seeds := GenerateSeeds(10, 6)
	res, err := RunCampaign(DefaultCampaign(seeds, 200))
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner()
	for _, g := range res.Test {
		v := runner.Run(g.Data)
		if !v.Discrepant() {
			continue
		}
		c, err := Decompile(g.Data)
		if err != nil {
			t.Fatal(err)
		}
		reduced, vec, err := ReduceClass(c)
		if err != nil {
			t.Fatal(err)
		}
		if reduced == nil || vec != v.Key() {
			t.Fatalf("reduction: %v %q, want vector %q", reduced, vec, v.Key())
		}
		return
	}
	// No discrepant test in this campaign; reduce a seed instead.
	c := GenerateSeeds(1, 1)[0]
	reduced, vec, err := ReduceClass(c)
	if err != nil {
		t.Fatal(err)
	}
	if reduced == nil || len(vec) != 5 {
		t.Fatalf("reduction: %v %q", reduced, vec)
	}
}
