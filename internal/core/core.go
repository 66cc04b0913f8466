// Package core implements the paper's contribution: Algorithm CC, the
// connected-component labeler for the scan line array processor.
//
// The top-level procedure (paper, Figure 2) is
//
//  1. a left-connected component labeling — each PE groups the rows of
//     its column with union–find while relevant unions stream rightward
//     (Union-Find-Pass, Figure 5), then component labels stream rightward
//     the same way (Label-Pass, Figure 6);
//  2. a right-connected component labeling, the mirror image;
//  3. a purely local merge per PE of the two labelings: sequential
//     connected components on the graph whose nodes are the column's left
//     and right labels and whose edges pair the two labels of each pixel.
//
// Components end up labeled with the least column-major position of
// their pixels. See the package's labeling pass for the one deliberate
// deviation from Figure 6 (the "min rule"), and Aggregate for the
// Corollary 4 extension.
//
// # Reuse
//
// Simulating a run used to allocate its entire working state afresh —
// hundreds of megabytes per megapixel-scale call. All working state now
// lives in arenas owned by a Labeler, which re-initializes them in place
// run after run: construct one with NewLabeler and call Label/Aggregate
// on a stream of images to label with (almost) no allocation after the
// first call. The package-level Label and Aggregate draw Labelers from a
// pool, so even one-shot calls reuse warm arenas under steady load.
// Metrics are identical either way; only host-side speed differs.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"slapcc/internal/bitmap"
	"slapcc/internal/hostcc"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

// Options configure a run of Algorithm CC.
type Options struct {
	// UF selects the union–find implementation (default: KindTarjan,
	// weighted union + full path compression, the paper's §3 default).
	UF unionfind.Kind
	// Connectivity selects 4- (the paper's, default) or 8-connectivity.
	// The 8-connected extension keeps the paper's machinery and adds
	// pixel-level bridge records: a single pixel can be diagonally
	// adjacent to up to three mutually disconnected pixels of the next
	// column, which no union in its own column would ever link, so each
	// pixel chains its next-column neighbors explicitly (≤ 2 extra
	// records per pixel; the O(n) per-link traffic bound stands).
	Connectivity bitmap.Connectivity
	// IdleCompression enables the §3 heuristic: while a PE waits on its
	// neighbor during the union–find pass it spends each idle cycle
	// performing one unit of path compression. Only effective for
	// forest-backed UF kinds; ignored otherwise.
	IdleCompression bool
	// Speculate enables the other §3 heuristic: a PE forwards a dequeued
	// union to its neighbor *before* executing the local finds and union,
	// whenever the two witness rows are themselves adjacent to 1-pixels
	// of the next column (an O(1) test). This removes the find/union
	// latency from the inter-PE critical path. A speculative forward is
	// always safe for correctness: the two rows being unioned are
	// connected, so their next-column neighbors belong to one component
	// and the downstream union is at worst a no-op (counted in
	// Result.Speculation.Wasted).
	//
	// It is not automatically safe for time: forwarded no-ops re-forward
	// downstream, and on union-dense images the traffic multiplies per
	// column (a Θ(n·w²) blowup, measured in experiment E11's history).
	// The paper's sketch bounds this with quash messages; a FIFO link
	// cannot unsend, so each PE instead throttles itself — once its own
	// forwards have been mostly wasted it stops speculating for the rest
	// of the pass, bounding the waste per link by a constant.
	Speculate bool
	// Cost is the machine cost model (default slap.Unit()).
	Cost slap.CostModel
	// ChargeInput includes the O(n) row-by-row image input phase
	// (Figure 1) in the metrics (default true; set SkipInput to drop it).
	SkipInput bool
	// UnitCostUF accounts every union–find operation as a single step
	// regardless of its true pointer-step cost: the accounting of §2's
	// Lemma 1/2 ("under the assumption that unions and finds are constant
	// time"). The structure still executes normally; only the charged
	// time differs.
	UnitCostUF bool
	// Profile records per-PE completion times for every phase
	// (Metrics.Phases[i].PerPE), making the systolic wavefront visible.
	Profile bool

	// ArrayWidth is the physical PE count of the simulated machine. Zero
	// (the default) sizes the array to the image, as always; a positive
	// width narrower than the image strip-mines the run: the image is
	// partitioned into vertical strips of at most ArrayWidth columns,
	// each strip is labeled by Algorithm CC on the fixed-width array, and
	// the strip-boundary seams are stitched by a host-side union–find
	// pass (see LabelLarge and the tiler's schedule model). Labels are
	// identical to the whole-image run's; negative values are rejected.
	ArrayWidth int
	// StripWorkers fans the strips of a strip-mined run across a
	// LabelerPool of up to this many workers (strips are independent
	// until the seam stitch). Zero or one labels strips sequentially on
	// one warm arena set. Labels and composed metrics are bit-identical
	// at every setting — the schedule model is unaffected; only host
	// wall time changes. Negative values are rejected.
	StripWorkers int
	// Seam selects how a strip-mined run's seam relabel is charged:
	// SeamDistributed (the default) broadcasts the remap table down the
	// array and rewrites per PE, metered as real machine phases
	// ("seam-broadcast", "seam-rewrite"); SeamHost charges the relabel
	// as a sequential host pass folded into "seam-merge" (the pre-PR 5
	// model, kept selectable for comparison — its composed numbers are
	// unchanged bit for bit). Labels, per-pixel aggregates, and the UF
	// report are identical under both; only the charged phases differ.
	// Ignored on whole-image runs. See docs/METRICS.md.
	Seam SeamModel
	// Schedule selects the strip-composition schedule model:
	// ScheduleSequential (the default) runs strips back to back;
	// SchedulePipelined overlaps strip s+1's input phase (and all but
	// the last boundary column's seam offload) with strip s's sweeps on
	// a double-buffered array, shrinking the composed Time while leaving
	// every work total — per-phase makespans, busy time, traffic —
	// identical. Ignored on whole-image runs. See docs/METRICS.md and
	// slap.Metrics.MergePipelined.
	Schedule ScheduleModel

	// Engine selects the execution engine: EngineSim (the default; ""
	// selects it) runs the metered SLAP simulation, EngineHost answers
	// with the word-parallel host labeler — identical labels and
	// aggregate values, no simulation, zero Metrics. Host runs ignore
	// ArrayWidth/Seam/Schedule (a whole-image host pass is bit-identical
	// to any strip decomposition) and the simulation-only knobs. See the
	// Engine type.
	Engine Engine

	// SkipLabels permits the engine to answer without materializing the
	// per-pixel labeling when the caller only needs the summary —
	// Result.Labels may come back nil (Result.Summary carries the frame
	// dimensions and the component summary). The simulator ignores it:
	// a metered run labels as part of the simulation. The host engine
	// honors it by skipping the fill sweep and the label map allocation,
	// which for summary-only traffic is most of the per-frame cost.
	// Aggregation runs ignore it too — per-pixel folds are the product.
	SkipLabels bool

	// noFuse runs the sweep phases through the per-phase reference
	// executor instead of the fused column walk. The two are
	// bit-equivalent (tests compare them exhaustively); the knob exists
	// for those tests and for ablation, hence unexported.
	noFuse bool
}

// SeamModel selects how a strip-mined run charges the seam relabel
// (Options.Seam).
type SeamModel string

// Seam-relabel models.
const (
	// SeamDistributed broadcasts the seam remap table down the array and
	// rewrites per PE — the deployment a real fixed-width SLAP would use
	// — charged as metered "seam-broadcast" and "seam-rewrite" machine
	// phases. The default.
	SeamDistributed SeamModel = "distributed"
	// SeamHost charges the relabel as a sequential host pass inside the
	// "seam-merge" phase: one LocalStep per rewritten pixel, no array
	// phases. The original strip-mining model, kept for comparison.
	SeamHost SeamModel = "host"
)

// Valid reports whether the seam model is known ("" selects the
// default).
func (s SeamModel) Valid() bool {
	return s == "" || s == SeamDistributed || s == SeamHost
}

// ScheduleModel selects the strip-composition schedule
// (Options.Schedule).
type ScheduleModel string

// Strip schedule models.
const (
	// ScheduleSequential composes strips back to back: the composed Time
	// is the sum of every strip's makespan plus the seam phases. The
	// default.
	ScheduleSequential ScheduleModel = "sequential"
	// SchedulePipelined overlaps strip s+1's input phase with strip s's
	// sweeps on a double-buffered array (slap.Metrics.MergePipelined),
	// and streams all but the final boundary column's seam offload under
	// the following strips' compute.
	SchedulePipelined ScheduleModel = "pipelined"
)

// Valid reports whether the schedule model is known ("" selects the
// default).
func (s ScheduleModel) Valid() bool {
	return s == "" || s == ScheduleSequential || s == SchedulePipelined
}

func (o Options) withDefaults() Options {
	if o.UF == "" {
		o.UF = unionfind.KindTarjan
	}
	if o.Cost == (slap.CostModel{}) {
		o.Cost = slap.Unit()
	}
	if o.Connectivity == 0 {
		o.Connectivity = bitmap.Conn4
	}
	if o.Seam == "" {
		o.Seam = SeamDistributed
	}
	if o.Schedule == "" {
		o.Schedule = ScheduleSequential
	}
	if o.Engine == "" {
		o.Engine = EngineSim
	}
	return o
}

// UFReport aggregates union–find behavior over all PEs of both passes.
type UFReport struct {
	Kind       unionfind.Kind
	Finds      int64
	Unions     int64
	TotalSteps int64
	// MaxOpCost is the most expensive single operation observed on any
	// PE: the quantity bounded by O(lg n) for weighted forests and by
	// O(lg n / lg lg n) for the Blum-style structure (Theorem 3).
	MaxOpCost int64
	// MeanOpCost is the steps-per-operation average.
	MeanOpCost float64
}

// SpecStats reports the speculative-forwarding heuristic's behavior.
type SpecStats struct {
	// Sends counts unions forwarded ahead of local execution.
	Sends int64
	// Wasted counts speculative sends whose local union turned out to be
	// a no-op (the sets were already together), i.e. traffic the paper's
	// quash messages would have canceled.
	Wasted int64
}

// Result is the output of Label.
type Result struct {
	// Labels is the canonical component labeling: every component carries
	// the least column-major position of its pixels; background is
	// bitmap.Background.
	Labels *bitmap.LabelMap
	// Metrics is the simulated machine's timing/traffic accounting.
	Metrics slap.Metrics
	// UF reports union–find behavior.
	UF UFReport
	// Speculation reports the Speculate heuristic (zero when disabled).
	Speculation SpecStats
	// Summary, when non-nil, is the labeling's component summary,
	// computed by the engine along the way (the host engine folds it
	// into its resolve sweep for ~free). Values are identical to what
	// seqcc.Summarize(Labels) computes; consumers may use either.
	Summary *Summary
}

// Summary is a labeling's component summary: the class count, the
// total foreground pixels, and the largest component's pixel count —
// the numbers every service response leads with — plus the frame
// dimensions, so a summary-only result (Options.SkipLabels) can answer
// the wire form without a label map to measure.
type Summary struct {
	W, H       int
	Components int
	Foreground int
	Largest    int
}

// message kinds on the links.
const (
	msgEOS   uint8 = iota // end of stream (the paper's "eos")
	msgUnion              // relevant union: A, B = adjacent-row witnesses
	msgLabel              // label flow: A = label, B = target row
)

// Labeler runs Algorithm CC repeatedly without re-allocating its working
// state: the simulated machine, the per-column pass states (column bits,
// union–find structures, adjacency/label satellites), and the merge
// scratch are all arenas re-initialized in place by every call. Use one
// Labeler per stream of images (a video pipeline, a benchmark loop) and
// call Label or Aggregate per frame; after the first call the hot path
// performs (almost) no allocation.
//
// A Labeler is not safe for concurrent use; the results it returns are
// independent of it and stay valid afterwards. The zero cost of reuse is
// observable only host-side: simulated metrics are bit-identical to a
// fresh run's (tests enforce this).
type Labeler struct {
	// userOpt is the configuration supplied at construction; opt is its
	// defaulted form, valid during a run.
	userOpt Options
	opt     Options

	m *slap.Machine

	// Per-run state. img is an Image, not a *Bitmap: the strip tiler
	// labels zero-copy bitmap.Strip views through the same arenas.
	img    bitmap.Image
	w, h   int
	report UFReport
	spec   SpecStats
	meters []*unionfind.Meter

	// Arenas: per-pass column states, the fused-walk subphase specs,
	// the merge scratch, and the aggregation states.
	passCols [2][]colState
	subs     []slap.SubPhase
	mg       mergeScratch
	agg      aggScratch

	// Strip-mining arenas (see tiler.go): the seam-stitch scratch, and
	// the cached worker pool of the StripWorkers fan-out with the
	// options it was built for.
	seam         seamScratch
	stripPool    *LabelerPool
	stripPoolOpt Options

	// host is the host engine's arena set (see engine.go), built lazily
	// on the first EngineHost run so simulator-only labelers pay nothing.
	host *hostcc.Labeler

	// ctx is the caller's request context for the duration of a *Ctx
	// run: strip-mined runs poll it between strips, so a cancelled
	// request stops early instead of finishing the whole image. Nil
	// (the non-Ctx entry points) means never cancelled.
	ctx context.Context
}

// cancelCheck reports ctx's cancellation as a core error (nil ctx never
// cancels). It wraps the context error, so errors.Is(err,
// context.Canceled / DeadlineExceeded) keeps working for callers that
// map cancellation to a status code.
func cancelCheck(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: run cancelled between strips: %w", err)
	}
	return nil
}

// NewLabeler returns a reusable labeler running Algorithm CC under opt.
// Option problems (an unknown union–find kind, an invalid cost model)
// are reported by the first Label call, like the one-shot API.
func NewLabeler(opt Options) *Labeler {
	return &Labeler{userOpt: opt}
}

// Label runs Algorithm CC on img, reusing the labeler's arenas. When
// Options.ArrayWidth names an array narrower than the image, the run is
// strip-mined (see LabelLarge); the labeling is identical either way.
// Options.Engine == EngineHost answers with the host engine instead:
// the same labels, no simulation.
func (lb *Labeler) Label(img *bitmap.Bitmap) (*Result, error) {
	if lb.userOpt.Engine == EngineHost {
		return lb.labelHost(img)
	}
	if aw := lb.userOpt.ArrayWidth; aw > 0 && aw < img.W() {
		return lb.labelLarge(img)
	}
	return lb.labelImage(img)
}

// LabelCtx is Label under a request context: a strip-mined run polls
// ctx between strips and stops early with a wrapped context error when
// it is cancelled, instead of finishing the whole image. Whole-image
// runs are one indivisible simulation; for them ctx is checked only on
// entry. Results and metrics of completed runs are identical to
// Label's.
func (lb *Labeler) LabelCtx(ctx context.Context, img *bitmap.Bitmap) (*Result, error) {
	if err := cancelCheck(ctx); err != nil {
		return nil, err
	}
	lb.ctx = ctx
	defer func() { lb.ctx = nil }()
	return lb.Label(img)
}

// labelImage is Label over the Image interface, always on a whole-image
// array: the shared path under Label, LabelLarge's per-strip runs, and
// Aggregate's labeling step.
func (lb *Labeler) labelImage(img bitmap.Image) (*Result, error) {
	labels, err := lb.runCC(img)
	lb.img = nil // don't keep the caller's image alive between runs
	if err != nil {
		return nil, err
	}
	lb.finishReport()
	return &Result{Labels: labels, Metrics: lb.m.Metrics(), UF: lb.report, Speculation: lb.spec}, nil
}

// labelerPool backs the package-level one-shot calls, so steady streams
// of Label calls reuse warm arenas even without an explicit Labeler.
var labelerPool = sync.Pool{New: func() any { return &Labeler{} }}

// Label runs Algorithm CC on img over a pooled machine and returns the
// labeling, metrics, and union–find report. The labeling always equals
// the sequential ground truth; an error is returned only for
// configuration problems (unknown UF kind, image too large for the label
// space, invalid cost model).
func Label(img *bitmap.Bitmap, opt Options) (*Result, error) {
	lb := labelerPool.Get().(*Labeler)
	defer labelerPool.Put(lb)
	lb.userOpt = opt
	return lb.Label(img)
}

// runCC executes the full Algorithm CC against the labeler's arenas and
// returns the finished labeling; the machine keeps accumulating phases,
// for extensions like Aggregate.
func (lb *Labeler) runCC(img bitmap.Image) (*bitmap.LabelMap, error) {
	opt := lb.userOpt.withDefaults()
	if err := opt.Cost.Validate(); err != nil {
		return nil, err
	}
	if !unionfind.Valid(opt.UF) {
		return nil, fmt.Errorf("core: unknown union-find kind %q", opt.UF)
	}
	if !opt.Connectivity.Valid() {
		return nil, fmt.Errorf("core: invalid connectivity %d", opt.Connectivity)
	}
	w, h := img.W(), img.H()
	if w > 0 && h > 0 && 2*int64(w)*int64(h) > math.MaxInt32 {
		return nil, fmt.Errorf("core: image %dx%d exceeds the int32 label space", w, h)
	}
	lb.opt = opt
	lb.img, lb.w, lb.h = img, w, h
	lb.report = UFReport{Kind: opt.UF}
	lb.spec = SpecStats{}
	lb.meters = lb.meters[:0]
	if lb.m == nil {
		lb.m = slap.NewMachine(w, opt.Cost)
	} else {
		lb.m.Reset(w, opt.Cost)
	}
	if opt.Profile {
		lb.m.EnableProfile()
	}
	if opt.ArrayWidth < 0 || opt.StripWorkers < 0 {
		return nil, fmt.Errorf("core: negative tiling options (ArrayWidth %d, StripWorkers %d)", opt.ArrayWidth, opt.StripWorkers)
	}
	if !opt.Seam.Valid() {
		return nil, fmt.Errorf("core: unknown seam model %q (want %q or %q)", opt.Seam, SeamDistributed, SeamHost)
	}
	if !opt.Schedule.Valid() {
		return nil, fmt.Errorf("core: unknown schedule model %q (want %q or %q)", opt.Schedule, ScheduleSequential, SchedulePipelined)
	}
	if !opt.Engine.Valid() {
		return nil, fmt.Errorf("core: unknown engine %q (want %q or %q)", opt.Engine, EngineSim, EngineHost)
	}
	if opt.noFuse {
		lb.m.DisableFusion()
	}

	if !opt.SkipInput {
		lb.m.ChargeGlobal("input", int64(h))
	}
	if w == 0 || h == 0 {
		return bitmap.NewLabelMap(w, h), nil
	}

	lb.runPass(slap.LeftToRight, nil)
	// Step 3 of Figure 2, the purely local merge, rides the right-pass
	// walk as its trailing subphase: each column's two labelings are
	// merged immediately after its right-pass assign, while the
	// column's state is still cache-hot. Its phase metrics land after
	// the right pass's, exactly as when it ran as its own walk.
	labels := bitmap.NewLabelMap(w, h)
	mergeSub := lb.mergeSub(labels)
	lb.runPass(slap.RightToLeft, &mergeSub)
	return labels, nil
}

// finishReport folds every pass meter into the aggregate report.
func (lb *Labeler) finishReport() {
	var steps, ops int64
	for _, m := range lb.meters {
		st := m.Stats()
		lb.report.Finds += st.Finds
		lb.report.Unions += st.Unions
		steps += st.FindSteps + st.UnionSteps
		ops += st.Finds + st.Unions
		if c := m.MaxOpCost(); c > lb.report.MaxOpCost {
			lb.report.MaxOpCost = c
		}
	}
	lb.report.TotalSteps = steps
	if ops > 0 {
		lb.report.MeanOpCost = float64(steps) / float64(ops)
	}
}
