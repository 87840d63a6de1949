package difftest

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/analysis"
	"repro/internal/jvm"
)

// MemoExportVersion is the on-disk format version of MemoExport.
const MemoExportVersion = 1

// MemoExport is the serializable image of an OutcomeMemo: every
// distinct classfile with its recorded per-VM outcomes. VM identities
// travel as an opaque signature over the full spec (name, release,
// every policy knob) plus the bound library release, so an import into
// a lineup whose policies drifted silently drops the stale outcomes
// instead of attributing them to the wrong VM.
type MemoExport struct {
	Version int               `json:"version"`
	Classes []MemoExportClass `json:"classes"`
	// Verify carries the method-granular verification memo
	// (jvm.VerifyMemo) alongside the whole-class outcomes. The field is
	// optional — files written before the verify memo existed simply
	// leave it empty, so the version number stays at 1.
	Verify []jvm.VerifyMemoExportEntry `json:"verify_outcomes,omitempty"`
}

// MemoExportClass is one distinct classfile's cache line.
type MemoExportClass struct {
	Data     []byte              `json:"data"`
	Outcomes []MemoExportOutcome `json:"outcomes"`
}

// MemoExportOutcome is one (VM identity, outcome) pair. VM and Env are
// diagnostic; Sig is what Import matches on.
type MemoExportOutcome struct {
	VM      string      `json:"vm"`
	Env     int         `json:"env"`
	Sig     uint64      `json:"sig"`
	Outcome jvm.Outcome `json:"outcome"`
}

// identSig fingerprints a VM identity for export matching: the full
// spec (every policy knob participates via the %+v rendering) and the
// bound library release.
func identSig(id vmIdent) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d", id.spec, int(id.env))
	return h.Sum64()
}

// Export snapshots the memo's contents in a deterministic order
// (classes by fingerprint then insertion, outcomes by VM name/release)
// so checkpoint files diff cleanly across runs.
func (m *OutcomeMemo) Export() *MemoExport {
	m.mu.Lock()
	defer m.mu.Unlock()
	fps := make([]uint64, 0, len(m.buckets))
	for fp := range m.buckets {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] }) //detlint:ok map keys sorted before emission
	exp := &MemoExport{Version: MemoExportVersion}
	for _, fp := range fps {
		for _, c := range m.buckets[fp] {
			ec := MemoExportClass{Data: c.data}
			ids := make([]vmIdent, 0, len(c.outcomes))
			for id := range c.outcomes {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { //detlint:ok map keys sorted before emission
				if ids[i].spec.Name != ids[j].spec.Name {
					return ids[i].spec.Name < ids[j].spec.Name
				}
				if ids[i].env != ids[j].env {
					return ids[i].env < ids[j].env
				}
				return identSig(ids[i]) < identSig(ids[j])
			})
			for _, id := range ids {
				ec.Outcomes = append(ec.Outcomes, MemoExportOutcome{
					VM:      id.spec.Name,
					Env:     int(id.env),
					Sig:     identSig(id),
					Outcome: c.outcomes[id],
				})
			}
			exp.Classes = append(exp.Classes, ec)
		}
	}
	return exp
}

// Import merges an exported memo back in, resolving VM identities
// against the given lineup (typically a fresh NewStandardRunner's VMs,
// whose idents equal the exporting process's by value). Outcomes whose
// signature matches no lineup VM — a policy or library drift — are
// dropped, never misattributed; the byte-keyed class lines make a
// fingerprint collision cost a compare, not a wrong outcome. It
// returns how many (class, VM) outcomes were adopted.
func (m *OutcomeMemo) Import(exp *MemoExport, vms []*jvm.VM) (int, error) {
	if exp == nil {
		return 0, nil
	}
	if exp.Version != MemoExportVersion {
		return 0, fmt.Errorf("difftest: memo export version %d, this build reads %d", exp.Version, MemoExportVersion)
	}
	known := make(map[uint64]vmIdent, len(vms))
	for _, vm := range vms {
		id := memoIdent(vm)
		known[identSig(id)] = id
	}
	adopted := 0
	for _, ec := range exp.Classes {
		if len(ec.Data) == 0 {
			continue
		}
		fp := analysis.ContentFingerprint(ec.Data)
		m.mu.Lock()
		c := m.classLocked(fp, ec.Data)
		for _, eo := range ec.Outcomes {
			id, ok := known[eo.Sig]
			if !ok {
				continue
			}
			m.put(c, id, eo.Outcome)
			adopted++
		}
		m.mu.Unlock()
	}
	return adopted, nil
}
