// Package trace records the memory access streams of synthetic workloads
// and characterizes them: the per-application working set, write share and
// reuse that mcmsim -characterize reports, Table 4-style.
package trace

import "mcmgpu/internal/workload"

// Op is one recorded warp memory operation.
type Op struct {
	Write bool
	Lines []uint64
}

// WarpTrace is the ordered op stream of one warp.
type WarpTrace struct {
	CTA  int
	Warp int
	Ops  []Op
}

// Trace is the recorded access stream of one kernel launch.
type Trace struct {
	Name        string
	CTAs        int
	WarpsPerCTA int
	Warps       []WarpTrace // len = CTAs * WarpsPerCTA, CTA-major
}

// Record captures the access stream of one kernel launch of spec.
// Compute counts are a fixed property of the spec, so only memory behavior
// is recorded.
func Record(spec *workload.Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Trace{
		Name:        spec.Name,
		CTAs:        spec.CTAs,
		WarpsPerCTA: spec.WarpsPerCTA,
	}
	t.Warps = make([]WarpTrace, 0, spec.CTAs*spec.WarpsPerCTA)
	var op workload.Op
	for cta := 0; cta < spec.CTAs; cta++ {
		for w := 0; w < spec.WarpsPerCTA; w++ {
			wt := WarpTrace{CTA: cta, Warp: w, Ops: make([]Op, 0, spec.MemOpsPerWarp)}
			st := workload.NewStream(spec, cta, w)
			for st.Next(&op) {
				lines := make([]uint64, op.NumLines)
				copy(lines, op.Lines[:op.NumLines])
				wt.Ops = append(wt.Ops, Op{Write: op.Write, Lines: lines})
			}
			t.Warps = append(t.Warps, wt)
		}
	}
	return t, nil
}

// Ops returns the total number of recorded operations.
func (t *Trace) Ops() int {
	n := 0
	for i := range t.Warps {
		n += len(t.Warps[i].Ops)
	}
	return n
}

// Stats summarizes a trace.
type Stats struct {
	Ops           int
	LineAccesses  int
	UniqueLines   int
	WriteFraction float64
	// FootprintMB is unique lines times the 128-byte line size.
	FootprintMB float64
	// ReuseFactor is line accesses per unique line.
	ReuseFactor float64
}

// Summarize computes aggregate statistics for the trace.
func (t *Trace) Summarize() Stats {
	var s Stats
	seen := make(map[uint64]struct{})
	writes := 0
	for i := range t.Warps {
		for _, op := range t.Warps[i].Ops {
			s.Ops++
			if op.Write {
				writes++
			}
			for _, l := range op.Lines {
				s.LineAccesses++
				seen[l] = struct{}{}
			}
		}
	}
	s.UniqueLines = len(seen)
	if s.Ops > 0 {
		s.WriteFraction = float64(writes) / float64(s.Ops)
	}
	s.FootprintMB = float64(s.UniqueLines) * 128 / (1024 * 1024)
	if s.UniqueLines > 0 {
		s.ReuseFactor = float64(s.LineAccesses) / float64(s.UniqueLines)
	}
	return s
}
