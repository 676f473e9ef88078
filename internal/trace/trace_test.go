package trace

import (
	"reflect"
	"testing"

	"mcmgpu/internal/workload"
)

func smallSpec() *workload.Spec {
	s, err := workload.ByName("BFS")
	if err != nil {
		panic(err)
	}
	return s.Scaled(0.05)
}

func TestRecordShape(t *testing.T) {
	spec := smallSpec()
	tr, err := Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != spec.Name {
		t.Errorf("Name = %q", tr.Name)
	}
	if len(tr.Warps) != spec.CTAs*spec.WarpsPerCTA {
		t.Fatalf("warps = %d, want %d", len(tr.Warps), spec.CTAs*spec.WarpsPerCTA)
	}
	if got, want := tr.Ops(), spec.CTAs*spec.WarpsPerCTA*spec.MemOpsPerWarp; got != want {
		t.Fatalf("Ops = %d, want %d", got, want)
	}
}

func TestRecordRejectsInvalidSpec(t *testing.T) {
	bad := *smallSpec()
	bad.CTAs = 0
	if _, err := Record(&bad); err == nil {
		t.Fatalf("invalid spec accepted")
	}
}

func TestSummarize(t *testing.T) {
	spec := smallSpec()
	tr, err := Record(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Ops != tr.Ops() {
		t.Errorf("Ops mismatch: %d vs %d", s.Ops, tr.Ops())
	}
	if s.UniqueLines == 0 || s.UniqueLines > s.LineAccesses {
		t.Errorf("UniqueLines = %d of %d accesses", s.UniqueLines, s.LineAccesses)
	}
	if s.WriteFraction < 0.05 || s.WriteFraction > 0.5 {
		t.Errorf("WriteFraction = %v, spec says %v", s.WriteFraction, spec.WriteFraction)
	}
	if s.ReuseFactor < 1 {
		t.Errorf("ReuseFactor = %v, must be >= 1", s.ReuseFactor)
	}
	if s.FootprintMB <= 0 || s.FootprintMB > spec.ModelFootprintMB()+0.01 {
		t.Errorf("FootprintMB = %v, spec footprint %v", s.FootprintMB, spec.ModelFootprintMB())
	}
}

func TestDeterministicRecording(t *testing.T) {
	a, err := Record(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recording is nondeterministic")
	}
}

// Property: every workload in the suite records at tiny scale, and its
// summary counts every recorded op.
func TestSuiteRecordsProperty(t *testing.T) {
	for _, spec := range workload.Suite() {
		small := spec.Scaled(0.02)
		small.CTAs = 8 // keep traces tiny
		if small.FootprintLines < uint64(small.CTAs)*2+small.SharedLines+small.ScatterLines {
			small.FootprintLines = uint64(small.CTAs)*2 + small.SharedLines + small.ScatterLines
		}
		tr, err := Record(small)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if s := tr.Summarize(); s.Ops != tr.Ops() || s.Ops == 0 {
			t.Fatalf("%s: summary counts %d ops, trace has %d", spec.Name, s.Ops, tr.Ops())
		}
	}
}
