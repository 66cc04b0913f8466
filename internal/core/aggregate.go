package core

import (
	"context"
	"fmt"
	"math"
	mbits "math/bits"

	"slapcc/internal/bitmap"
	"slapcc/internal/slap"
)

// Monoid is a commutative, associative fold operator with identity, the
// generalization Corollary 4 asks for ("any binary operator that is
// associative and commutative"). The paper demonstrates minimum; this
// implementation supports non-idempotent operators (e.g. Sum) as well,
// because each component's contribution per column is combined exactly
// once: a PE folds its left-incoming value, its own column's fold, and
// its right-incoming value, and the sweeps forward each component's
// accumulator exactly once per link.
type Monoid struct {
	// Name identifies the operator in tables.
	Name string
	// Identity is the fold's neutral element.
	Identity int32
	// Combine folds two values; it must be associative and commutative.
	Combine func(a, b int32) int32
}

// Min returns the minimum monoid of Corollary 4.
func Min() Monoid {
	return Monoid{Name: "min", Identity: math.MaxInt32, Combine: func(a, b int32) int32 {
		if a < b {
			return a
		}
		return b
	}}
}

// Max returns the maximum monoid.
func Max() Monoid {
	return Monoid{Name: "max", Identity: math.MinInt32, Combine: func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	}}
}

// Sum returns the addition monoid; with all-ones initial labels it
// computes component areas.
func Sum() Monoid {
	return Monoid{Name: "sum", Identity: 0, Combine: func(a, b int32) int32 { return a + b }}
}

// Or returns the bitwise-or monoid, useful for merging per-pixel tag
// masks over components.
func Or() Monoid {
	return Monoid{Name: "or", Identity: 0, Combine: func(a, b int32) int32 { return a | b }}
}

// Ones returns an all-ones initial labeling of img (so Aggregate with
// Sum yields component areas).
func Ones(img *bitmap.Bitmap) []int32 {
	init := make([]int32, img.W()*img.H())
	for i := range init {
		init[i] = 1
	}
	return init
}

// AggregateResult is the output of Aggregate.
type AggregateResult struct {
	// PerPixel holds, at each column-major position of a 1-pixel, the
	// fold of initial over that pixel's whole component; background
	// positions hold the identity.
	PerPixel []int32
	// Labels is the component labeling computed along the way.
	Labels *bitmap.LabelMap
	// Metrics covers the labeling and the aggregation phases together.
	Metrics slap.Metrics
	// UF reports union–find behavior of the labeling passes.
	UF UFReport
	// Summary, when non-nil, is the labeling's component summary (see
	// Result.Summary).
	Summary *Summary
}

// Aggregate implements the paper's Corollary 4: label the pixels of each
// component with the fold (op) of the initial labels of the component's
// pixels, in the same asymptotic time as component labeling itself.
// initial is indexed by column-major position (x·H + y).
//
// The procedure follows the Corollary's sketch: first produce a component
// labeling, then fold locally within each column, then run two
// Label-Pass-like sweeps (left-to-right and right-to-left) accumulating
// per-component values, and finally combine the three pieces locally.
//
// With 0 < opt.ArrayWidth < img.W() the run strip-mines onto the
// fixed-width array (see AggregateLarge); results are identical.
func Aggregate(img *bitmap.Bitmap, initial []int32, op Monoid, opt Options) (*AggregateResult, error) {
	lb := labelerPool.Get().(*Labeler)
	defer labelerPool.Put(lb)
	lb.userOpt = opt
	return lb.Aggregate(img, initial, op)
}

// Aggregate is the Labeler's reusable-arena form of the package-level
// Aggregate: the labeling and the aggregation satellites all run
// against the labeler's arenas; the only per-call allocation is the
// returned result. When Options.ArrayWidth names an array narrower than
// the image, the run is strip-mined (see AggregateLarge and the tiler's
// schedule models); per-pixel folds and labels are identical either
// way.
func (lb *Labeler) Aggregate(img *bitmap.Bitmap, initial []int32, op Monoid) (*AggregateResult, error) {
	w, h := img.W(), img.H()
	if len(initial) != w*h {
		return nil, fmt.Errorf("core: initial labels have length %d, want %d", len(initial), w*h)
	}
	if op.Combine == nil {
		return nil, fmt.Errorf("core: monoid %q has no Combine", op.Name)
	}
	if lb.userOpt.Engine == EngineHost {
		return lb.aggregateHost(img, initial, op)
	}
	if aw := lb.userOpt.ArrayWidth; aw > 0 && aw < w {
		return lb.aggregateLarge(img, initial, op)
	}
	return lb.aggregateImage(img, initial, op)
}

// AggregateCtx is Aggregate under a request context, with LabelCtx's
// contract: strip-mined runs poll ctx between strips and stop early
// with a wrapped context error when it is cancelled; whole-image runs
// check ctx only on entry.
func (lb *Labeler) AggregateCtx(ctx context.Context, img *bitmap.Bitmap, initial []int32, op Monoid) (*AggregateResult, error) {
	if err := cancelCheck(ctx); err != nil {
		return nil, err
	}
	lb.ctx = ctx
	defer func() { lb.ctx = nil }()
	return lb.Aggregate(img, initial, op)
}

// aggregateImage is Aggregate over the Image interface, always on a
// whole-image array: the shared path under Aggregate and
// AggregateLarge's per-strip runs (which pass zero-copy strip views and
// the strip's contiguous window of the initial values).
func (lb *Labeler) aggregateImage(img bitmap.Image, initial []int32, op Monoid) (*AggregateResult, error) {
	w, h := img.W(), img.H()
	if len(initial) != w*h {
		return nil, fmt.Errorf("core: initial labels have length %d, want %d", len(initial), w*h)
	}
	if op.Combine == nil {
		return nil, fmt.Errorf("core: monoid %q has no Combine", op.Name)
	}
	labels, err := lb.runCC(img)
	defer func() { lb.img = nil }() // don't keep the caller's image alive between runs
	if err != nil {
		return nil, err
	}
	out := make([]int32, w*h)
	for i := range out {
		out[i] = op.Identity
	}
	if w == 0 || h == 0 {
		lb.finishReport()
		return &AggregateResult{PerPixel: out, Labels: labels, Metrics: lb.m.Metrics(), UF: lb.report}, nil
	}

	states := lb.agg.ensure(w)

	// Local fold per column, and left/right extension flags per component.
	// Column bits come from the left-pass arena, which runCC left intact
	// (witness probes the neighbor columns the same way the sweeps did).
	passCols := lb.passCols[0]
	lb.m.RunLocal("agg:local", func(pe *slap.PE) {
		x := pe.Index
		st := &states[x]
		st.prepare(int(passCols[x].onesCount))
		cbits := passCols[x].bits
		var ticks int64
		for wi, word := range cbits {
			for word != 0 {
				j := wi<<6 + mbits.TrailingZeros64(word)
				word &= word - 1
				c := st.intern(labels.Get(x, j), op)
				st.local[c] = op.Combine(st.local[c], initial[x*h+j])
				if lb.witness(passCols, x, j, 1) != -1 {
					st.extR[c] = true
				}
				if lb.witness(passCols, x, j, -1) != -1 {
					st.extL[c] = true
				}
				ticks++ // one charged step per intern lookup, as before
			}
		}
		pe.Tick(ticks + int64(h)) // the per-row scan charge, batched
		pe.DeclareMemory(int64(6 * len(st.comps)))
	})

	// The two accumulation sweeps. Each component crosses each link at
	// most once (components span contiguous column intervals), giving the
	// exactly-once combination that non-idempotent monoids need.
	lb.aggSweep(slap.LeftToRight, states, op)
	lb.aggSweep(slap.RightToLeft, states, op)

	// Combine locally: left part (columns < x), own column, right part.
	lb.m.RunLocal("agg:combine", func(pe *slap.PE) {
		x := pe.Index
		st := &states[x]
		totals := lb.agg.totals[:0]
		for c := range st.comps {
			totals = append(totals, op.Combine(op.Combine(st.inL[c], st.local[c]), st.inR[c]))
			pe.Tick(1)
		}
		lb.agg.totals = totals[:0]
		cbits := passCols[x].bits
		pe.Tick(int64(h))
		for wi, word := range cbits {
			for word != 0 {
				j := wi<<6 + mbits.TrailingZeros64(word)
				word &= word - 1
				c, ok := st.lookup(labels.Get(x, j))
				if !ok {
					panic(fmt.Sprintf("core: PE %d row %d: pixel label %d never interned", x, j, labels.Get(x, j)))
				}
				out[x*h+j] = totals[c]
			}
		}
	})

	lb.finishReport()
	return &AggregateResult{PerPixel: out, Labels: labels, Metrics: lb.m.Metrics(), UF: lb.report}, nil
}

// aggScratch is the labeler-owned arena behind Aggregate: one aggState
// per column, plus the combine step's totals scratch. Everything is
// re-initialized in place per run — a warm labeler aggregates with no
// per-column allocation, like the labeling passes (the per-column
// component maps this replaced were the last per-column allocation on
// the hot path).
type aggScratch struct {
	states []aggState
	totals []int32
}

// ensure sizes the per-column state arena for a w-column run.
func (a *aggScratch) ensure(w int) []aggState {
	if cap(a.states) < w {
		grown := make([]aggState, w)
		copy(grown, a.states)
		a.states = grown
	}
	a.states = a.states[:w]
	return a.states
}

// aggState is one PE's aggregation memory: the distinct component labels
// of its column in first-appearance order, per-component folds and
// extension flags, and an epoch-marked interner mapping a component
// label to its dense per-column index (the same table as the merge
// scratch's, but per column, because every column's mapping must stay
// live across the accumulation sweeps, which only read it).
type aggState struct {
	comps []int32 // component labels, first-appearance order
	local []int32 // fold over this column's pixels
	inL   []int32 // fold over columns < x (identity if none)
	inR   []int32 // fold over columns > x
	extL  []bool  // component continues into the previous column
	extR  []bool  // component continues into the next column
	it    interner
}

// prepare re-initializes the state for a column with onesCount 1-pixels
// (a column of k 1-pixels has at most k distinct components).
func (st *aggState) prepare(onesCount int) {
	st.comps = st.comps[:0]
	st.local = st.local[:0]
	st.inL = st.inL[:0]
	st.inR = st.inR[:0]
	st.extL = st.extL[:0]
	st.extR = st.extR[:0]
	st.it.prepare(onesCount)
}

// intern returns the dense index of label, appending a fresh component
// on first sight.
func (st *aggState) intern(label int32, op Monoid) int {
	i := st.it.slot(label)
	if st.it.live(i) {
		return int(st.it.val[i])
	}
	c := len(st.comps)
	st.it.set(i, label, int32(c))
	st.comps = append(st.comps, label)
	st.local = append(st.local, op.Identity)
	st.inL = append(st.inL, op.Identity)
	st.inR = append(st.inR, op.Identity)
	st.extL = append(st.extL, false)
	st.extR = append(st.extR, false)
	return c
}

// lookup returns the dense index of label, or ok=false if it was never
// interned. Read-only.
func (st *aggState) lookup(label int32) (int, bool) {
	id, ok := st.it.lookup(label)
	return int(id), ok
}

// aggSweep streams per-component accumulators across the array in one
// direction: a component's value is forwarded once, either immediately
// (components that do not extend backward) or upon receiving the single
// incoming record for it.
func (lb *Labeler) aggSweep(dir slap.Direction, states []aggState, op Monoid) {
	w := lb.w
	lastCol := w - 1
	if dir == slap.RightToLeft {
		lastCol = 0
	}
	lb.m.RunSweep(passName(dir, "agg"), dir, func(pe *slap.PE) {
		x := pe.Index
		st := &states[x]
		extBack, extFwd := st.extL, st.extR
		in := st.inL
		if dir == slap.RightToLeft {
			extBack, extFwd = st.extR, st.extL
			in = st.inR
		}
		// Components with no backward extension have their final
		// accumulator already: forward it now.
		for c, label := range st.comps {
			pe.Tick(1)
			if !extBack[c] && extFwd[c] {
				pe.Send(slap.Msg{Kind: msgLabel, A: label, B: op.Combine(in[c], st.local[c]), Words: 2})
			}
		}
		if pe.HasIn() {
			for {
				msg, ok := pe.RecvWait()
				if !ok {
					panic(fmt.Sprintf("core: PE %d: aggregation stream ended without eos", x))
				}
				if msg.Kind == msgEOS {
					break
				}
				c, ok := st.lookup(msg.A)
				pe.Tick(1)
				if !ok {
					panic(fmt.Sprintf("core: PE %d: aggregation record for unknown component %d", x, msg.A))
				}
				in[c] = op.Combine(in[c], msg.B)
				if extFwd[c] {
					pe.Send(slap.Msg{Kind: msgLabel, A: msg.A, B: op.Combine(in[c], st.local[c]), Words: 2})
				}
			}
		}
		if x != lastCol {
			pe.Send(slap.Msg{Kind: msgEOS})
		}
	})
}
