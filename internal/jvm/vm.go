package jvm

import (
	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// VM is one simulated JVM implementation bound to a runtime library
// environment. No outcome depends on an earlier run: Run resets the
// VM's reusable per-run state, so one VM may be reused for many
// classfiles (from one goroutine at a time). Spec and Env must not
// change once the VM has run with a verify memo attached.
type VM struct {
	Spec Spec
	Env  *rtlib.Env
	cov  *coverage.Recorder

	// Lazily-interned probe caches for the two unbounded dynamic probe
	// families (platform intrinsics, verifier error names). Per-VM maps
	// so the warm path is a lock-free, allocation-free lookup; misses
	// intern through the shared package registry.
	platProbes map[platformProbeKey]coverage.StmtID
	verifyErrs map[string]coverage.StmtID

	// tel, when attached via SetTelemetry, times the startup pipeline:
	// one histogram per stage (named by the Phase constants) plus parse
	// timing and a run counter, all keyed by the VM's spec name. Its
	// handles are nil by default, and nil handles record nothing.
	tel vmTel

	// decodeCache memoises bytecode decoding by code bytes. Mutants
	// overwhelmingly share method bodies (the generated main, <init>,
	// unmutated seed methods), and within one run the verifier and the
	// interpreter both need the same decode, so the cache is hit far
	// more often than it is filled. Decoding is a pure function of the
	// bytes, so sharing entries across runs cannot change outcomes.
	// Lazily created unless a shared cache is attached via
	// SetDecodeCache/ShareDecodeCache.
	decodeCache *DecodeCache

	// vscratch recycles the verifier's working storage (frames, entry
	// states, worklist) across runVerifier calls. Safe as a single
	// per-VM value because method verification never nests: the
	// verifier resolves classes through flat Env lookups, it does not
	// link them.
	vscratch verifyScratch

	// verifyMemo, when attached via SetVerifyMemo, memoises per-method
	// verification verdicts across runs (and across VMs sharing the
	// memo) keyed by MethodKey. verifyID is this VM's ident interned in
	// that memo (0 until the first memoised verification). vcap is the
	// lazily-created scratch recorder verifyMethodMemo swaps in to
	// capture the verifier's probe footprint on a miss.
	verifyMemo *VerifyMemo
	verifyID   VerifyID
	vcap       *coverage.Recorder

	// ex, seenFields and seenMethods are the per-run state, reset by
	// each run instead of reallocated (execFor, load).
	ex          execState
	seenFields  map[memberKey]struct{}
	seenMethods map[memberKey]struct{}

	// rejectStep is the pipeline step that rejected the last run.
	rejectStep Step
}

// Step names the pipeline step that rejected a run: loading (parse and
// format checks) or linking (hierarchy, resolution, verification).
// It is where the VM stopped, not Outcome.Phase: a linking-step
// rejection can report PhaseLoading (an unloadable superclass, a
// circular hierarchy).
type Step uint8

// Reject steps.
const (
	StepNone Step = iota // neither loading nor linking rejected the class
	StepLoad
	StepLink
)

// RejectStep reports which step rejected the VM's last run, or
// StepNone when the class was linked.
func (vm *VM) RejectStep() Step { return vm.rejectStep }

type platformProbeKey struct{ cls, name string }

// decodedCode is an immutable decode of one method body, shared across
// runs and between the verifier and the interpreter.
type decodedCode struct {
	ins     []*bytecode.Instruction
	pcIndex pcTable
	err     error
}

// pcTable maps a byte PC of a code array to the index of the
// instruction that starts there. Entry pc holds that index plus one,
// so the zeroed table reads "no instruction starts here".
type pcTable []int32

// at returns the index of the instruction starting at byte pc.
func (t pcTable) at(pc int) (int, bool) {
	if pc < 0 || pc >= len(t) || t[pc] == 0 {
		return 0, false
	}
	return int(t[pc]) - 1, true
}

// decodeCacheMax bounds the live generation; when full the cache
// rotates generations instead of dropping everything (entries are pure
// functions of their keys, so eviction can only cost a redundant
// decode).
const decodeCacheMax = 4096

// DecodeCache is a bytecode-decode memo that may be shared by several
// VMs: decoding is policy-independent (a pure function of the code
// bytes), so one cache can serve a whole differential lineup and each
// shared method body is decoded once instead of once per VM. It is not
// safe for concurrent use — share a cache only among VMs driven from
// one goroutine (each worker lineup owns its own).
//
// Eviction is generational second-chance: at decodeCacheMax the live
// map is demoted to the previous generation and a fresh one started;
// a body found in the previous generation is promoted back into the
// live map. Hot bodies (the generated main, <init>, shared seed
// methods) therefore survive rotation indefinitely, instead of the old
// wholesale reset cold-starting every decode on long daemon runs.
type DecodeCache struct {
	m    map[string]decodedCode
	prev map[string]decodedCode
}

// NewDecodeCache returns an empty cache.
func NewDecodeCache() *DecodeCache { return &DecodeCache{} }

func (c *DecodeCache) get(code []byte) (decodedCode, bool) {
	if d, ok := c.m[string(code)]; ok {
		return d, true
	}
	if d, ok := c.prev[string(code)]; ok {
		// Second chance: promote into the live generation so the entry
		// survives the next rotation too.
		if c.m == nil {
			c.m = make(map[string]decodedCode, 64)
		}
		c.m[string(code)] = d
		return d, true
	}
	return decodedCode{}, false
}

// put inserts a decode, rotating generations when the live map is full.
// rotated reports that a rotation happened (for the eviction counter).
func (c *DecodeCache) put(code []byte, d decodedCode) (rotated bool) {
	if c.m == nil {
		c.m = make(map[string]decodedCode, 64)
	} else if len(c.m) >= decodeCacheMax {
		c.prev = c.m
		c.m = make(map[string]decodedCode, 64)
		rotated = true
	}
	c.m[string(code)] = d
	return rotated
}

// SetDecodeCache attaches a decode cache (pass nil to detach; the VM
// then lazily creates a private one).
func (vm *VM) SetDecodeCache(c *DecodeCache) { vm.decodeCache = c }

// ShareDecodeCache binds one fresh decode cache to every VM of a
// lineup and returns it. The caller must drive the lineup from a
// single goroutine.
func ShareDecodeCache(vms []*VM) *DecodeCache {
	c := NewDecodeCache()
	for _, vm := range vms {
		vm.SetDecodeCache(c)
	}
	return c
}

// decodeCode returns the decode of code, from the VM's decode cache
// when it holds one. Entries are values, so a miss allocates only the
// decode (the instructions, their list and the PC table) and the
// cache's copy of the key.
func (vm *VM) decodeCode(code []byte) decodedCode {
	if vm.decodeCache == nil {
		vm.decodeCache = NewDecodeCache()
	}
	if d, ok := vm.decodeCache.get(code); ok {
		return d
	}
	var d decodedCode
	d.ins, d.err = bytecode.Decode(code)
	if d.err == nil {
		d.pcIndex = make(pcTable, len(code))
		for i, in := range d.ins {
			d.pcIndex[in.PC] = int32(i) + 1
		}
	}
	if vm.decodeCache.put(code, d) {
		vm.tel.decodeEvict.Inc()
	}
	return d
}

// New builds a VM from a spec, bound to the matching library
// environment (the e of jvm(e, c, i)): the release's shared, immutable
// rtlib.Env.
func New(spec Spec) *VM {
	return &VM{Spec: spec, Env: rtlib.Shared(spec.Release)}
}

// NewWithEnv builds a VM bound to an explicit environment. Running two
// VMs against the same environment is how Definition 2 separates JVM
// defects from compatibility discrepancies.
func NewWithEnv(spec Spec, env *rtlib.Env) *VM {
	return &VM{Spec: spec, Env: env}
}

// Name returns the VM's display name.
func (vm *VM) Name() string { return vm.Spec.Name }

// SetRecorder attaches a coverage recorder; pass nil to detach. The
// recorder is only attached to the reference VM during fuzzing.
func (vm *VM) SetRecorder(r *coverage.Recorder) { vm.cov = r }

// SetVerifyMemo attaches a method-verification memo (pass nil to
// detach; verification then always runs the verifier).
func (vm *VM) SetVerifyMemo(m *VerifyMemo) { vm.verifyMemo, vm.verifyID = m, 0 }

// vmTel holds a VM's interned telemetry handles: a run counter, parse
// timing, and one histogram per startup-pipeline stage. Stage indices
// follow the Phase constants (PhaseLoading..PhaseRuntime; PhaseInvoked
// has no stage of its own — it is the absence of a rejection). The zero
// value is the detached state.
type vmTel struct {
	runs        *telemetry.Counter
	parse       *telemetry.Histogram
	decodeEvict *telemetry.Counter
	phases      [PhaseCount]*telemetry.Histogram
}

// SetTelemetry attaches a metrics registry: every Run/RunParsed/RunFile
// then records per-stage wall time into histograms named
// "jvm.<spec>.phase.<phase>_ns" (plus "jvm.<spec>.parse_ns" and the
// counter "jvm.<spec>.runs"). Telemetry is observe-only — outcomes and
// coverage traces are unaffected. Pass nil to detach: the handles go
// back to nil, and the spans over them read no clock.
func (vm *VM) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		vm.tel = vmTel{}
		return
	}
	prefix := "jvm." + vm.Spec.Name
	t := vmTel{
		runs:        reg.Counter(prefix + ".runs"),
		parse:       reg.Histogram(prefix + ".parse_ns"),
		decodeEvict: reg.Counter(prefix + ".decode_cache.evictions"),
	}
	for _, p := range []Phase{PhaseLoading, PhaseLinking, PhaseInit, PhaseRuntime} {
		t.phases[p] = reg.Histogram(prefix + ".phase." + p.String() + "_ns")
	}
	vm.tel = t
}

// st fires a statement probe.
func (vm *VM) st(id coverage.StmtID) { vm.cov.Stmt(id) }

// br fires a statement probe plus a branch probe for cond, and returns
// cond so checks read naturally: if vm.br(bLoadSuperValid, bad) { ... }.
func (vm *VM) br(p coverage.BranchProbe, cond bool) bool {
	vm.cov.Stmt(p.Stmt)
	vm.cov.Branch(p.Branch, cond)
	return cond
}

// stPlatform fires the statement probe for a platform intrinsic call
// site ("interp.platform.<class>.<method>"). The (class, method) pair
// is classfile-controlled and unbounded, so the probe is interned on
// first sight and cached per VM; warm calls allocate nothing.
func (vm *VM) stPlatform(cls, name string) {
	if vm.cov == nil {
		return
	}
	k := platformProbeKey{cls, name}
	id, ok := vm.platProbes[k]
	if !ok {
		id = probes.Stmt("interp.platform." + cls + "." + name)
		if vm.platProbes == nil {
			vm.platProbes = make(map[platformProbeKey]coverage.StmtID)
		}
		vm.platProbes[k] = id
	}
	vm.cov.Stmt(id)
}

// stVerifyErr fires the statement probe for a verifier rejection class
// ("verify.err.<error>"), interning and caching like stPlatform.
func (vm *VM) stVerifyErr(errName string) {
	if vm.cov == nil {
		return
	}
	id, ok := vm.verifyErrs[errName]
	if !ok {
		id = probes.Stmt("verify.err." + errName)
		if vm.verifyErrs == nil {
			vm.verifyErrs = make(map[string]coverage.StmtID)
		}
		vm.verifyErrs[errName] = id
	}
	vm.cov.Stmt(id)
}

// Run parses and executes raw classfile bytes through the full startup
// pipeline, returning the observable outcome.
func (vm *VM) Run(data []byte) Outcome {
	vm.st(pParseEnter)
	sp := telemetry.StartSpan(vm.tel.parse)
	f, err := classfile.Parse(data)
	sp.End()
	if vm.br(bParseWellformed, err != nil) {
		vm.tel.runs.Inc()
		vm.rejectStep = StepLoad
		return ParseReject(err)
	}
	return vm.RunFile(f)
}

// ParseReject is the outcome every VM reports for bytes classfile.Parse
// rejects — the shared front half of Run. Parsing is VM-independent, so
// a caller that parses once (the difftest engine) fans the identical
// rejection out to the whole lineup.
func ParseReject(err error) Outcome {
	return reject(PhaseLoading, ErrClassFormat, "%v", err)
}

// RunParsed executes a classfile while firing the same parse probes Run
// fires on well-formed input, so the outcome and coverage trace are
// bit-identical to Run over bytes that parse to f. Callers holding such
// a File need no parse: the difftest engine parses once for a whole
// lineup, and the campaign runs the File it lowered, which once
// written equals Parse of its bytes (classfile.File.AppendBytes).
func (vm *VM) RunParsed(f *classfile.File) Outcome {
	vm.st(pParseEnter)
	vm.br(bParseWellformed, false)
	return vm.RunFile(f)
}

// RunFile executes an already-parsed classfile. The file is not
// modified. Each pipeline stage runs under a span; with no telemetry
// attached the spans' histograms are nil and no clock is read.
func (vm *VM) RunFile(f *classfile.File) Outcome {
	vm.tel.runs.Inc()
	sp := telemetry.StartSpan(vm.tel.phases[PhaseLoading])
	out, bad := vm.load(f)
	sp.End()
	if bad {
		vm.rejectStep = StepLoad
		return out
	}
	ex := vm.execFor(f)
	sp = telemetry.StartSpan(vm.tel.phases[PhaseLinking])
	out, bad = vm.link(ex)
	sp.End()
	if bad {
		vm.rejectStep = StepLink
		return out
	}
	vm.rejectStep = StepNone
	sp = telemetry.StartSpan(vm.tel.phases[PhaseInit])
	out, bad = vm.initialize(ex)
	sp.End()
	if bad {
		return out
	}
	sp = telemetry.StartSpan(vm.tel.phases[PhaseRuntime])
	out = vm.invoke(ex)
	sp.End()
	return out
}

// execFor resets the VM's exec state for a run of f and returns it.
func (vm *VM) execFor(f *classfile.File) *execState {
	vm.ex.reset(vm, f)
	return &vm.ex
}
