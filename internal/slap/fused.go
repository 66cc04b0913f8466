package slap

// The fused sweep runner: Algorithm CC's pass structure is a chain of
// phases over the same array where phase k of PE i depends only on
// phase k of PE i-1 (sweep links) and phases < k of PE i itself. Run
// phase by phase, the host walks the whole array once per phase and
// every PE's working set falls out of cache between phases; fused, the
// host walks the array once per *pass*, running every phase body for a
// column back to back while its column state is hot. Virtual time is
// untouched: each subphase keeps its own link chain and its own
// PhaseMetrics, every PE view starts at clock 0 exactly as in the
// per-phase executor, and the phases are folded into the machine's
// metrics in declaration order — the resulting Metrics are bit-identical
// to the unfused execution (tests demand it).

// SubPhase is one phase of a fused walk.
type SubPhase struct {
	// Name labels the phase in the machine metrics.
	Name string
	// Local marks a phase with no links (RunLocal's shape); non-local
	// subphases sweep in the walk's direction.
	Local bool
	// Body is the per-PE program.
	Body func(pe *PE)
}

// fusedSub is the walk-persistent state of one subphase: its metrics,
// the link its next consumer will read (the producer's outbound link is
// a walk-local variable), and its backlog-tracker buffer.
type fusedSub struct {
	phase PhaseMetrics
	in    *link
	pend  []int64
}

// DisableFusion makes RunFused execute its subphases as separate
// per-phase walks (RunSweep/RunLocal) for subsequently executed phases.
// The unfused executor is the reference implementation: equivalence
// tests and ablations run both and compare metrics bit for bit.
func (mc *Machine) DisableFusion() { mc.fuseOff = true }

// RunFused executes subs as one fused walk over the array in the order
// of dir: per position, prep (when non-nil, host-side state setup that
// charges nothing) runs first, then every subphase body back to back.
// After DisableFusion it delegates to the per-phase executor: all preps
// first, then each subphase via RunSweep or RunLocal.
func (mc *Machine) RunFused(dir Direction, prep func(idx int), subs []SubPhase) {
	if mc.fuseOff {
		if prep != nil {
			for pos := 0; pos < mc.n; pos++ {
				idx := pos
				if dir == RightToLeft {
					idx = mc.n - 1 - pos
				}
				prep(idx)
			}
		}
		for i := range subs {
			if subs[i].Local {
				mc.RunLocal(subs[i].Name, subs[i].Body)
			} else {
				mc.RunSweep(subs[i].Name, dir, subs[i].Body)
			}
		}
		return
	}

	// Grow the walk arena; per-sub pend buffers are kept across runs.
	if cap(mc.fusedSubs) < len(subs) {
		grown := make([]fusedSub, len(subs))
		copy(grown, mc.fusedSubs)
		mc.fusedSubs = grown
	}
	fs := mc.fusedSubs[:len(subs)]
	for i := range fs {
		fs[i].phase = PhaseMetrics{Name: subs[i].Name}
		fs[i].in = nil
	}

	pe := &mc.scratchPE
	for pos := 0; pos < mc.n; pos++ {
		idx := pos
		if dir == RightToLeft {
			idx = mc.n - 1 - pos
		}
		if prep != nil {
			prep(idx)
		}
		for i := range subs {
			s := &fs[i]
			var out *link
			if !subs[i].Local && pos < mc.n-1 {
				out = mc.acquireLink()
			}
			*pe = PE{Index: idx, cost: mc.cost, in: s.in, out: out, pendCons: s.pend[:0]}
			subs[i].Body(pe)
			mc.foldPE(&s.phase, pe)
			s.pend = pe.pendCons[:0]
			if s.in != nil {
				// Same queue-peak bookkeeping as RunSweep: the consumer
				// streamed its own peak; a rescan only matters for links
				// with unconsumed records.
				q := pe.maxBacklog
				if s.in.consumed != len(s.in.msgs) {
					q = peakBacklog(s.in)
				}
				if q > s.phase.MaxQueue {
					s.phase.MaxQueue = q
				}
				mc.releaseLink(s.in)
			}
			s.in = out
		}
	}
	for i := range fs {
		mc.metrics.add(fs[i].phase)
	}
}
