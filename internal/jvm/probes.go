package jvm

import (
	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/coverage"
)

// probes is the package-level probe registry shared by every VM in the
// process. All static probe sites intern their IDs here once, at
// package initialisation, so a vm.st/vm.br on the hot path fires a
// plain integer index: no string concatenation, no map hashing, no
// allocation. Traces recorded by any VM in the process live in the same
// dense index space and are therefore directly comparable.
var probes = coverage.NewRegistry()

// ProbeRegistry exposes the package registry so callers can build
// recorders over it and resolve dense probe indices back to the stable
// human-readable probe-ID strings (reports, triage, tests).
func ProbeRegistry() *coverage.Registry { return probes }

// Per-opcode statement probes for the interpreter and the verifier
// simulation loop, and per-constant-pool-tag probes for the loader:
// the dynamic probe-ID families ("interp.op.iadd", "verify.op.goto",
// "load.cp.tag.Utf8", ...) are finite and byte-indexed, so they are
// pre-interned into flat tables.
var (
	opProbes       [256]coverage.StmtID
	verifyOpProbes [256]coverage.StmtID
	cpTagProbes    [256]coverage.StmtID
)

func init() {
	for i := 0; i < 256; i++ {
		m := bytecode.Opcode(i).Mnemonic()
		opProbes[i] = probes.Stmt("interp.op." + m)
		verifyOpProbes[i] = probes.Stmt("verify.op." + m)
		cpTagProbes[i] = probes.Stmt("load.cp.tag." + classfile.ConstTag(i).String())
	}
}

// Statement probes (vm.st sites).
var (
	pInitEnter                = probes.Stmt("init.enter")
	pInitLazyverifyfail       = probes.Stmt("init.lazyverifyfail")
	pInitOk                   = probes.Stmt("init.ok")
	pInterpCall               = probes.Stmt("interp.call")
	pInterpHandler            = probes.Stmt("interp.handler")
	pInvokeEnter              = probes.Stmt("invoke.enter")
	pInvokeLazyverifyfail     = probes.Stmt("invoke.lazyverifyfail")
	pInvokeOk                 = probes.Stmt("invoke.ok")
	pLinkEnter                = probes.Stmt("link.enter")
	pLinkIfaceEntry           = probes.Stmt("link.iface.entry")
	pLinkOk                   = probes.Stmt("link.ok")
	pLinkResolveEnter         = probes.Stmt("link.resolve.enter")
	pLinkResolveEntry         = probes.Stmt("link.resolve.entry")
	pLinkResolveOk            = probes.Stmt("link.resolve.ok")
	pLinkSuperIfaceobject     = probes.Stmt("link.super.ifaceobject")
	pLinkThrowsEntry          = probes.Stmt("link.throws.entry")
	pLoadClassflags           = probes.Stmt("load.classflags")
	pLoadClinitIgnored        = probes.Stmt("load.clinit.ignored")
	pLoadClinitLegacyrule     = probes.Stmt("load.clinit.legacyrule")
	pLoadClinitOrdinary       = probes.Stmt("load.clinit.ordinary")
	pLoadClinitSeen           = probes.Stmt("load.clinit.seen")
	pLoadCpEnter              = probes.Stmt("load.cp.enter")
	pLoadCpOk                 = probes.Stmt("load.cp.ok")
	pLoadEnter                = probes.Stmt("load.enter")
	pLoadFieldEntry           = probes.Stmt("load.field.entry")
	pLoadIfaceEntry           = probes.Stmt("load.iface.entry")
	pLoadInitSeen             = probes.Stmt("load.init.seen")
	pLoadMethodEntry          = probes.Stmt("load.method.entry")
	pLoadOk                   = probes.Stmt("load.ok")
	pLoadVersionTolerated     = probes.Stmt("load.version.tolerated")
	pParseEnter               = probes.Stmt("parse.enter")
	pVerifyEnter              = probes.Stmt("verify.enter")
	pVerifyHandler            = probes.Stmt("verify.handler")
	pVerifyInvokeInitobj      = probes.Stmt("verify.invoke.initobj")
	pVerifyJsrret             = probes.Stmt("verify.jsrret")
	pVerifyLdcBadtag          = probes.Stmt("verify.ldc.badtag")
	pVerifyLdcClass           = probes.Stmt("verify.ldc.class")
	pVerifyLdcDouble          = probes.Stmt("verify.ldc.double")
	pVerifyLdcFloat           = probes.Stmt("verify.ldc.float")
	pVerifyLdcInt             = probes.Stmt("verify.ldc.int")
	pVerifyLdcLong            = probes.Stmt("verify.ldc.long")
	pVerifyLdcString          = probes.Stmt("verify.ldc.string")
	pVerifyLocaloob           = probes.Stmt("verify.localoob")
	pVerifyLocalsoverflow     = probes.Stmt("verify.localsoverflow")
	pVerifyLocaltype          = probes.Stmt("verify.localtype")
	pVerifyMerge              = probes.Stmt("verify.merge")
	pVerifyMergeStackconflict = probes.Stmt("verify.merge.stackconflict")
	pVerifyMergeStackshape    = probes.Stmt("verify.merge.stackshape")
	pVerifyMergeUninit        = probes.Stmt("verify.merge.uninit")
	pVerifyOk                 = probes.Stmt("verify.ok")
	pVerifyOpUnknown          = probes.Stmt("verify.op.unknown")
	pVerifyRefmismatch        = probes.Stmt("verify.refmismatch")
	pVerifyRejected           = probes.Stmt("verify.rejected")
	pVerifyStackoverflow      = probes.Stmt("verify.stackoverflow")
	pVerifyStackunderflow     = probes.Stmt("verify.stackunderflow")
	pVerifyTypemismatch       = probes.Stmt("verify.typemismatch")
)

// Branch probes (vm.br sites): each fires its statement index plus one
// of its two branch edges.
var (
	bInitAccess                  = probes.Probe("init.access")
	bInitHasclinit               = probes.Probe("init.hasclinit")
	bInitThrew                   = probes.Probe("init.threw")
	bInvokeInterface             = probes.Probe("invoke.interface")
	bInvokeMaincode              = probes.Probe("invoke.maincode")
	bInvokeMainflags             = probes.Probe("invoke.mainflags")
	bInvokeMainfound             = probes.Probe("invoke.mainfound")
	bInvokeThrew                 = probes.Probe("invoke.threw")
	bLinkIfaceAccess             = probes.Probe("link.iface.access")
	bLinkIfaceMissing            = probes.Probe("link.iface.missing")
	bLinkIfaceNotinterface       = probes.Probe("link.iface.notinterface")
	bLinkIfaceSelf               = probes.Probe("link.iface.self")
	bLinkResolveAccess           = probes.Probe("link.resolve.access")
	bLinkResolveClassmissing     = probes.Probe("link.resolve.classmissing")
	bLinkResolveFieldfound       = probes.Probe("link.resolve.fieldfound")
	bLinkResolveMethodfound      = probes.Probe("link.resolve.methodfound")
	bLinkResolveShape            = probes.Probe("link.resolve.shape")
	bLinkSuperAccess             = probes.Probe("link.super.access")
	bLinkSuperFinal              = probes.Probe("link.super.final")
	bLinkSuperInterface          = probes.Probe("link.super.interface")
	bLinkSuperMissing            = probes.Probe("link.super.missing")
	bLinkSuperSelf               = probes.Probe("link.super.self")
	bLinkThrowsAccess            = probes.Probe("link.throws.access")
	bLinkThrowsCp                = probes.Probe("link.throws.cp")
	bLinkThrowsMissing           = probes.Probe("link.throws.missing")
	bLoadClassflagsAnnotation    = probes.Probe("load.classflags.annotation")
	bLoadClassflagsFinalabstract = probes.Probe("load.classflags.finalabstract")
	bLoadClassflagsIfaceabstract = probes.Probe("load.classflags.ifaceabstract")
	bLoadClassflagsIfacefinal    = probes.Probe("load.classflags.ifacefinal")
	bLoadClinitCode              = probes.Probe("load.clinit.code")
	bLoadClinitSe9rule           = probes.Probe("load.clinit.se9rule")
	bLoadCpClassname             = probes.Probe("load.cp.classname")
	bLoadCpFielddesc             = probes.Probe("load.cp.fielddesc")
	bLoadCpMembervalid           = probes.Probe("load.cp.membervalid")
	bLoadCpMethoddesc            = probes.Probe("load.cp.methoddesc")
	bLoadCpMhkind                = probes.Probe("load.cp.mhkind")
	bLoadCpNatvalid              = probes.Probe("load.cp.natvalid")
	bLoadCpRef1utf8              = probes.Probe("load.cp.ref1utf8")
	bLoadFieldCpvalid            = probes.Probe("load.field.cpvalid")
	bLoadFieldDesc               = probes.Probe("load.field.desc")
	bLoadFieldDup                = probes.Probe("load.field.dup")
	bLoadFieldFinalvolatile      = probes.Probe("load.field.finalvolatile")
	bLoadFieldIfacerules         = probes.Probe("load.field.ifacerules")
	bLoadFieldVis                = probes.Probe("load.field.vis")
	bLoadIfaceSuperobject        = probes.Probe("load.iface.superobject")
	bLoadIfaceValid              = probes.Probe("load.iface.valid")
	bLoadInitFlags               = probes.Probe("load.init.flags")
	bLoadInitOninterface         = probes.Probe("load.init.oninterface")
	bLoadInitReturns             = probes.Probe("load.init.returns")
	bLoadMethodAbstractcombo     = probes.Probe("load.method.abstractcombo")
	bLoadMethodCodeabsent        = probes.Probe("load.method.codeabsent")
	bLoadMethodCodepresent       = probes.Probe("load.method.codepresent")
	bLoadMethodCpvalid           = probes.Probe("load.method.cpvalid")
	bLoadMethodDesc              = probes.Probe("load.method.desc")
	bLoadMethodDup               = probes.Probe("load.method.dup")
	bLoadMethodIfacerules        = probes.Probe("load.method.ifacerules")
	bLoadMethodVis               = probes.Probe("load.method.vis")
	bLoadSuperValid              = probes.Probe("load.super.valid")
	bLoadSuperZero               = probes.Probe("load.super.zero")
	bLoadThisclassName           = probes.Probe("load.thisclass.name")
	bLoadThisclassValid          = probes.Probe("load.thisclass.valid")
	bLoadVersionMax              = probes.Probe("load.version.max")
	bLoadVersionMin              = probes.Probe("load.version.min")
	bParseWellformed             = probes.Probe("parse.wellformed")
	bVerifyAnewarrayCp           = probes.Probe("verify.anewarray.cp")
	bVerifyAssignable            = probes.Probe("verify.assignable")
	bVerifyAthrowThrowable       = probes.Probe("verify.athrow.throwable")
	bVerifyBranchtarget          = probes.Probe("verify.branchtarget")
	bVerifyCheckcastCp           = probes.Probe("verify.checkcast.cp")
	bVerifyCodeempty             = probes.Probe("verify.codeempty")
	bVerifyDecodable             = probes.Probe("verify.decodable")
	bVerifyDesc                  = probes.Probe("verify.desc")
	bVerifyFalloff               = probes.Probe("verify.falloff")
	bVerifyFieldCp               = probes.Probe("verify.field.cp")
	bVerifyFieldDesc             = probes.Probe("verify.field.desc")
	bVerifyHandlerBounds         = probes.Probe("verify.handler.bounds")
	bVerifyHandlerCatchcp        = probes.Probe("verify.handler.catchcp")
	bVerifyHandlerCatchmissing   = probes.Probe("verify.handler.catchmissing")
	bVerifyHandlerCatchthrowable = probes.Probe("verify.handler.catchthrowable")
	bVerifyIndyCp                = probes.Probe("verify.indy.cp")
	bVerifyIndyDesc              = probes.Probe("verify.indy.desc")
	bVerifyIndyNat               = probes.Probe("verify.indy.nat")
	bVerifyInitUninitreturn      = probes.Probe("verify.init.uninitreturn")
	bVerifyInstanceofCp          = probes.Probe("verify.instanceof.cp")
	bVerifyInvokeCp              = probes.Probe("verify.invoke.cp")
	bVerifyInvokeDesc            = probes.Probe("verify.invoke.desc")
	bVerifyInvokeInitoninit      = probes.Probe("verify.invoke.initoninit")
	bVerifyInvokeUninitrecv      = probes.Probe("verify.invoke.uninitrecv")
	bVerifyLdcCp                 = probes.Probe("verify.ldc.cp")
	bVerifyMergeDepth            = probes.Probe("verify.merge.depth")
	bVerifyMultianewarrayDims    = probes.Probe("verify.multianewarray.dims")
	bVerifyNewCp                 = probes.Probe("verify.new.cp")
	bVerifyNewarrayType          = probes.Probe("verify.newarray.type")
	bVerifyReturnmatch           = probes.Probe("verify.returnmatch")
)
