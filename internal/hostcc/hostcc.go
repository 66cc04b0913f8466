// Package hostcc is the host execution engine: a word-parallel two-pass
// connected-component labeler that computes the same canonical
// least-column-major labeling as the simulated SLAP — and the same
// Corollary 4 aggregate folds — without simulating anything. No phases,
// no metered union–find, no systolic accounting: just answers, at
// hundreds of megabytes per second instead of single digits.
//
// The algorithm is the classic run-based two-pass labeler (PAPERS.md:
// Gupta et al. 1606.05973), shaped for this repository's column-major
// packed bitsets:
//
//  1. Runs. Each column's bits arrive as a packed []uint64
//     (bitmap.ColumnWords); vertical runs of 1-pixels fall out of two
//     word-parallel masks — run starts are word &^ (word<<1 | carry),
//     run ends are word &^ (word>>1 | next<<63) — scanned with
//     bits.TrailingZeros64, so a solid column costs O(h/64), not O(h).
//  2. Unions. Adjacent columns' runs merge by a two-pointer sweep over
//     their sorted row intervals (8-connectivity widens each interval
//     by one row); a path-halving union–find linked by least run id
//     joins the runs. Runs are created in ascending column-major start
//     order, so every class's root is its least run — the one whose
//     start is the component's least column-major position — and
//     parents always point at smaller ids. Component sizes fold into
//     the roots at union time, and foreground and the largest component
//     accumulate as runs are created and merged, so this pass alone
//     yields the whole component summary.
//  3. Resolve + fill (Label, Aggregate). Because parents decrease, one
//     ascending sweep resolves every run's canonical label with a
//     single array read (a root mints base+y0, a non-root copies its
//     parent's already resolved label) — no find chains on the hot
//     write path — and writes the run's rows through
//     LabelMap.ColumnSlice. Aggregation folds each run's initial values
//     once into its root (exactly-once combination, which
//     non-idempotent monoids like sum require), then writes per-pixel
//     totals alongside the labels. Summary stops after step 2. On a
//     frame at least two minimum bands (minBandCols) wide with more
//     than one P, it runs step 2 on up to GOMAXPROCS column bands
//     concurrently, each band aligned to 64 columns, then unions only
//     the runs on either side of each seam over the bands' local roots
//     — the parallel two-pass shape of Gupta et al., with the seam
//     merge of Chen et al. 1712.09789, and the way the scan-line array
//     composes strips. Label and Aggregate stay one whole-image band.
//
// Everything lives in a reusable arena Labeler, pooled like the
// simulator's, so steady host-engine traffic allocates only the
// returned results. The engine is held bit-identical to the simulator
// across the whole family × connectivity × shape matrix by the
// cross-engine tests in internal/core.
package hostcc

import (
	"math/bits"
	"runtime"
	"sync"

	"slapcc/internal/bitmap"
)

// Stats reports what a host run did: run (interval) counts and the
// union–find operation counts, for the UF report the service surfaces
// — the host engine charges no simulated steps — plus the component
// summary (count, foreground pixels, largest component), which the run
// pass folds together as it creates and merges runs, sparing result
// consumers a per-pixel summarization pass.
//
// Every field is a property of the image and connectivity, not of how
// the work was split: with a pair being two runs in neighboring columns
// that touch (row intervals overlap, widened by one row under
// 8-connectivity),
//
//	Finds  = Runs + 2·pairs   (one root resolution per run, two finds per pair)
//	Unions = Runs − Components (every effective union merges two classes)
//
// so the band-parallel Summary reports exactly the sequential counts.
type Stats struct {
	Runs   int64
	Finds  int64
	Unions int64

	Components int
	Foreground int
	Largest    int
}

// uf is a run union–find: linked by least id, so parent[r] ≤ r, with
// path halving; component sizes fold into the roots at union time. It
// counts the finds and effective unions of its union calls.
type uf struct {
	parent  []int32
	size    []int32 // per root: component pixel count
	largest int     // largest size any class has reached

	finds, unions int64
}

// Labeler is the host engine's reusable arena set: column word
// buffers, the flat run arrays, and the run union–find. Like the
// simulator's Labeler it is not safe for concurrent use, and the
// results it returns are independent of it.
type Labeler struct {
	uf
	words  []uint64 // one 64-column block of packed column bitsets
	runY0  []int32  // per run: first row
	runY1  []int32  // per run: last row
	colRun []int32  // per column of the pass: first run index; len columns+1
	canon  []int32  // per-run scratch: resolved canonical label
	fold   []int32  // per-root: aggregate fold (aggregation only)
	root   []int32  // per-run scratch: resolved root (aggregation only)
	fg     int      // foreground pixels: the runs' total length

	// The band driver's reusable state (Summary only).
	bands []*Labeler
	wg    sync.WaitGroup
	seam  uf // over the band-local roots that touch a seam
}

// NewLabeler returns a reusable host-engine labeler.
func NewLabeler() *Labeler { return &Labeler{} }

// pool backs the package-level one-shot calls, mirroring the
// simulator's labelerPool: steady one-shot host traffic reuses warm
// arenas.
var pool = sync.Pool{New: func() any { return NewLabeler() }}

// Label labels img on a pooled host labeler. See Labeler.Label.
func Label(img *bitmap.Bitmap, conn bitmap.Connectivity) (*bitmap.LabelMap, Stats) {
	lb := pool.Get().(*Labeler)
	defer pool.Put(lb)
	return lb.Label(img, conn)
}

// Aggregate aggregates img on a pooled host labeler. See
// Labeler.Aggregate.
func Aggregate(img *bitmap.Bitmap, initial []int32, identity int32, combine func(a, b int32) int32, conn bitmap.Connectivity) (*bitmap.LabelMap, []int32, Stats) {
	lb := pool.Get().(*Labeler)
	defer pool.Put(lb)
	return lb.Aggregate(img, initial, identity, combine, conn)
}

// Label computes the canonical component labeling of img: every
// component labeled with the least column-major position (x·H + y) of
// its pixels, background bitmap.Background — bit-identical to the
// simulator's Result.Labels for every image and connectivity.
func (lb *Labeler) Label(img *bitmap.Bitmap, conn bitmap.Connectivity) (*bitmap.LabelMap, Stats) {
	w, h := img.W(), img.H()
	// The fill sweep writes every slot exactly once — runs get their
	// label, the gaps between them get Background — so the map skips its
	// own Background prefill (a whole extra pass over W·H at this speed).
	out := bitmap.NewLabelMapNoInit(w, h)
	lb.runPass(img, conn, 0, w)

	lb.canon = growInt32(lb.canon, len(lb.runY0))
	labv, runY0, runY1, parent := lb.canon, lb.runY0, lb.runY1, lb.parent
	r := 0
	for x := 0; x < w; x++ {
		col := out.ColumnSlice(x)
		base := int32(x * h)
		gap := int32(0) // first row of the background gap before the next run
		for ; r < int(lb.colRun[x+1]); r++ {
			// Parents point at strictly smaller ids, so an ascending sweep
			// sees every parent's label already resolved: a root is its
			// class's least run (least column-major start = the canonical
			// label), a non-root copies its parent's label.
			lab := base + runY0[r]
			if p := parent[r]; p != int32(r) {
				lab = labv[p]
			}
			labv[r] = lab
			y0, y1 := runY0[r], runY1[r]
			pre := col[gap:y0]
			for i := range pre {
				pre[i] = bitmap.Background
			}
			run := col[y0 : y1+1]
			for i := range run {
				run[i] = lab
			}
			gap = y1 + 1
		}
		tail := col[gap:]
		for i := range tail {
			tail[i] = bitmap.Background
		}
	}
	return out, lb.stats()
}

// Summary computes exactly the Stats a Label call would return — runs,
// operation counts, and the component summary — without materializing
// the per-pixel labeling: the run pass alone, since it folds component
// sizes into the roots as it unions, leaves nothing to resolve.
// Summary-only service traffic (labels not requested) answers with
// this, skipping the fill sweep and the W·H label allocation that
// otherwise dominate a host frame.
//
// With more than one P and a frame at least two minimum bands wide,
// the columns split into up to GOMAXPROCS bands whose run passes run
// concurrently, and only the runs on the seams between bands are
// merged afterwards; the Stats are identical either way (see Stats).
func (lb *Labeler) Summary(img *bitmap.Bitmap, conn bitmap.Connectivity) Stats {
	return lb.summaryBands(img, conn, min(runtime.GOMAXPROCS(0), img.W()/minBandCols))
}

// minBandCols is the narrowest column band Summary hands to its own
// goroutine: below it the band's run pass is too short to pay for the
// goroutine start and the seam merge.
const minBandCols = 256

// summaryBands is Summary over nb column bands (nb ≤ 1: one sequential
// pass). Band edges fall on multiples of 64 columns, the
// ColumnWordsBlock granularity, so nb shrinks to the frame's 64-column
// block count. Band 0 runs on lb, the others on pooled labelers; each
// band's run pass is the sequential one over its column range, with
// band-local run ids. mergeSeams then joins the bands.
func (lb *Labeler) summaryBands(img *bitmap.Bitmap, conn bitmap.Connectivity, nb int) Stats {
	w := img.W()
	blocks := (w + 63) >> 6
	nb = min(nb, blocks)
	if nb <= 1 {
		lb.runPass(img, conn, 0, w)
		return lb.stats()
	}
	edge := func(i int) int { return min(w, (i*blocks/nb)<<6) }
	bands := append(lb.bands[:0], lb)
	lb.wg.Add(nb - 1)
	for i := 1; i < nb; i++ {
		band := pool.Get().(*Labeler)
		bands = append(bands, band)
		go band.bandPass(&lb.wg, img, conn, edge(i), edge(i+1))
	}
	lb.runPass(img, conn, 0, edge(1))
	lb.wg.Wait()
	st := lb.mergeSeams(bands, conn)
	for i := 1; i < nb; i++ {
		pool.Put(bands[i])
		bands[i] = nil // the pool owns it again
	}
	lb.bands = bands
	return st
}

// bandPass is one concurrent band of summaryBands.
func (lb *Labeler) bandPass(wg *sync.WaitGroup, img *bitmap.Bitmap, conn bitmap.Connectivity, x0, x1 int) {
	defer wg.Done()
	lb.runPass(img, conn, x0, x1)
}

// mergeSeams joins the bands' run passes into the whole image's Stats.
// Every component that touches a seam has, in each band it crosses, a
// band-local root; those roots become the nodes of a small union–find
// (lb.seam), seeded with the band-local component sizes. The runs on
// either side of each seam then meet in the same two-pointer sweep the
// run pass uses between any two columns, and each adjacent pair is one
// seam-union call: two finds, one union if the classes differ, sizes
// folded into the new root. So finds and unions add up to exactly the
// sequential sweep's counts, and the largest component is the larger of
// the bands' largest and the largest seam-merged class (merging only
// grows a class).
func (lb *Labeler) mergeSeams(bands []*Labeler, conn bitmap.Connectivity) Stats {
	var st Stats
	seam := &lb.seam
	seam.reset()
	last := len(bands) - 1
	for b, band := range bands {
		bs := band.stats()
		st.Runs += bs.Runs
		st.Finds += bs.Finds
		st.Unions += bs.Unions
		st.Foreground += bs.Foreground
		st.Largest = max(st.Largest, bs.Largest)
		// Number each seam-side class as a seam node on first sight,
		// seeded with its band-local size. The root's size slot then holds
		// the node as −(node+1) — sizes are positive, so the sign marks a
		// numbered root — since the band's sizes are spent after this.
		ncol := len(band.colRun) - 1 // ≥ 1: every band spans a column
		var edges [2][2]int32        // run ranges of the band's first and last column, where a seam lies
		if b > 0 {
			edges[0] = [2]int32{band.colRun[0], band.colRun[1]}
		}
		if b < last {
			edges[1] = [2]int32{band.colRun[ncol-1], band.colRun[ncol]}
		}
		for _, e := range edges {
			for r := e[0]; r < e[1]; r++ {
				if rt := band.find(r); band.size[rt] > 0 {
					band.size[rt] = -1 - seam.add(band.size[rt])
				}
			}
		}
	}
	widen := widening(conn)
	for b := 0; b < last; b++ {
		left, right := bands[b], bands[b+1]
		ncol := len(left.colRun) - 1
		pi, pEnd := left.colRun[ncol-1], left.colRun[ncol]
		for ci := right.colRun[0]; ci < right.colRun[1]; ci++ {
			lo, hi := right.runY0[ci]-widen, right.runY1[ci]+widen
			for pi < pEnd && left.runY1[pi] < lo {
				pi++
			}
			for pj := pi; pj < pEnd && left.runY0[pj] <= hi; pj++ {
				seam.union(left.seamNode(pj), right.seamNode(ci))
			}
		}
	}
	st.Finds += seam.finds
	st.Unions += seam.unions
	st.Components = int(st.Runs - st.Unions)
	st.Largest = max(st.Largest, seam.largest)
	return st
}

// seamNode returns the seam node of seam-side run r's class, as
// numbered by mergeSeams.
func (lb *Labeler) seamNode(r int32) int32 { return -1 - lb.size[lb.find(r)] }

// Aggregate computes the Corollary 4 aggregation on the host: the
// labeling plus, at every foreground position, the fold (under
// combine/identity) of initial over that pixel's whole component;
// background positions hold identity. initial is indexed by
// column-major position and must have length W·H (the caller
// validates). Values are bit-identical to the simulator's
// AggregateResult.PerPixel.
func (lb *Labeler) Aggregate(img *bitmap.Bitmap, initial []int32, identity int32, combine func(a, b int32) int32, conn bitmap.Connectivity) (*bitmap.LabelMap, []int32, Stats) {
	w, h := img.W(), img.H()
	// Like Label, pass B writes every label slot (runs and gaps), so the
	// map skips its Background prefill; per still prefills identity —
	// pass B only touches its foreground positions.
	out := bitmap.NewLabelMapNoInit(w, h)
	per := make([]int32, w*h)
	for i := range per {
		per[i] = identity
	}
	lb.runPass(img, conn, 0, w)

	n := len(lb.runY0)
	lb.canon = growInt32(lb.canon, n)
	lb.fold = growInt32(lb.fold, n)
	lb.root = growInt32(lb.root, n)
	canon, fold, roots := lb.canon, lb.fold, lb.root

	// Pass A: fold each run's initial values once into its class — the
	// exactly-once combination non-idempotent monoids need — resolving
	// roots and canonical labels along the same ascending sweep (parents
	// point at smaller, already resolved ids; a root is its class's least
	// run, whose start is the canonical label).
	r := 0
	for x := 0; x < w; x++ {
		base := x * h
		for ; r < int(lb.colRun[x+1]); r++ {
			acc := identity
			for _, v := range initial[base+int(lb.runY0[r]) : base+int(lb.runY1[r])+1] {
				acc = combine(acc, v)
			}
			if p := lb.parent[r]; p == int32(r) {
				roots[r] = int32(r)
				canon[r] = int32(base) + lb.runY0[r]
				fold[r] = acc
			} else {
				root := roots[p]
				roots[r] = root
				canon[r] = canon[p]
				fold[root] = combine(fold[root], acc)
			}
		}
	}

	// Pass B: write labels (runs and background gaps) and the finished
	// class totals.
	r = 0
	for x := 0; x < w; x++ {
		col := out.ColumnSlice(x)
		base := x * h
		gap := 0 // first row of the background gap before the next run
		for ; r < int(lb.colRun[x+1]); r++ {
			lab, tot := canon[r], fold[roots[r]]
			y0, y1 := int(lb.runY0[r]), int(lb.runY1[r])
			pre := col[gap:y0]
			for i := range pre {
				pre[i] = bitmap.Background
			}
			runLab := col[y0 : y1+1]
			runTot := per[base+y0 : base+y1+1]
			for i := range runLab {
				runLab[i] = lab
				runTot[i] = tot
			}
			gap = y1 + 1
		}
		tail := col[gap:]
		for i := range tail {
			tail[i] = bitmap.Background
		}
	}
	return out, per, lb.stats()
}

// runPass extracts the vertical runs of columns [x0, x1) from the
// packed column words and unions vertically adjacent runs of
// neighboring columns — the whole connectivity structure of that
// column range, built in one left-to-right sweep, with run ids and
// colRun local to the range. x0 must be a multiple of 64. Each run
// enters the union–find as a singleton class of its own length, and
// foreground and the largest class accumulate as runs are created and
// merged, so the component summary needs no resolve sweep.
func (lb *Labeler) runPass(img *bitmap.Bitmap, conn bitmap.Connectivity, x0, x1 int) {
	h := img.H()
	hw := (h + 63) >> 6
	lb.runY0 = lb.runY0[:0]
	lb.runY1 = lb.runY1[:0]
	lb.parent = lb.parent[:0]
	lb.size = lb.size[:0]
	lb.colRun = append(lb.colRun[:0], 0)
	lb.finds, lb.unions = 0, 0
	lb.fg, lb.largest = 0, 0

	widen := widening(conn)
	maxCol := (h + 1) / 2 // a column holds at most ⌈h/2⌉ runs
	prevLo := 0
	for x := x0; x < x1; x++ {
		// Columns arrive 64 at a time through the blocked bit transpose —
		// the per-column, per-row bit gather was the hottest single loop
		// in the engine.
		if x&63 == 0 {
			lb.words = img.ColumnWordsBlock(x, lb.words)
		}
		words := lb.words[(x&63)*hw : (x&63)*hw+hw]
		// Reserve this column's worst case up front so the emission loop
		// writes runs by index — three appends per run (len/cap checks and
		// length updates ×~runs×3) were a measurable slice of the pass.
		curLo := len(lb.runY0)
		lb.runY0 = growTo(lb.runY0, curLo+maxCol)[:curLo]
		lb.runY1 = growTo(lb.runY1, curLo+maxCol)[:curLo]
		lb.parent = growTo(lb.parent, curLo+maxCol)[:curLo]
		lb.size = growTo(lb.size, curLo+maxCol)[:curLo]
		runY0 := lb.runY0[:curLo+maxCol]
		runY1 := lb.runY1[:curLo+maxCol]
		n := curLo
		inRun := false
		var y0 int32
		for wi, word := range words {
			if word == 0 {
				// A run never spans an all-zero word: its end was emitted
				// from the previous word's mask (the lookahead bit was 0).
				continue
			}
			var carry, next uint64
			if wi > 0 {
				carry = words[wi-1] >> 63
			}
			if wi+1 < len(words) {
				next = words[wi+1] & 1
			}
			starts := word &^ (word<<1 | carry)
			ends := word &^ (word>>1 | next<<63)
			base := int32(wi << 6)
			// Starts and ends strictly alternate in bit order; each end
			// closes either the run carried in from below or the lowest
			// un-popped start.
			for ends != 0 {
				if !inRun {
					y0 = base + int32(bits.TrailingZeros64(starts))
					starts &= starts - 1
				}
				runY0[n] = y0
				runY1[n] = base + int32(bits.TrailingZeros64(ends))
				n++
				ends &= ends - 1
				inRun = false
			}
			if starts != 0 { // exactly one start can remain: a run crossing into the next word
				y0 = base + int32(bits.TrailingZeros64(starts))
				inRun = true
			}
		}
		curHi := n
		lb.runY0 = lb.runY0[:curHi]
		lb.runY1 = lb.runY1[:curHi]
		lb.parent = lb.parent[:curHi]
		lb.size = lb.size[:curHi]
		fg, longest := 0, int32(0)
		for r := curLo; r < curHi; r++ {
			lb.parent[r] = int32(r)
			ln := runY1[r] - runY0[r] + 1
			lb.size[r] = ln
			fg += int(ln)
			longest = max(longest, ln)
		}
		lb.fg += fg
		lb.largest = max(lb.largest, int(longest))
		// Two-pointer merge against the previous column's runs. Runs in a
		// column are separated by at least one background row, so the
		// widened intervals' low ends still ascend and pi never backtracks.
		pi := prevLo
		for ci := curLo; ci < curHi; ci++ {
			lo, hi := runY0[ci]-widen, runY1[ci]+widen
			for pi < curLo && runY1[pi] < lo {
				pi++
			}
			for pj := pi; pj < curLo && runY0[pj] <= hi; pj++ {
				lb.union(int32(pj), int32(ci))
			}
		}
		prevLo = curLo
		lb.colRun = append(lb.colRun, int32(curHi))
	}
}

// growTo returns s with capacity at least n, preserving contents.
func growTo(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s
	}
	ns := make([]int32, len(s), max(n, 2*cap(s)))
	copy(ns, s)
	return ns
}

// widening is how far 8-connectivity widens a run's row interval for
// the adjacency test: a diagonal touch is an overlap widened by one row.
func widening(conn bitmap.Connectivity) int32 {
	if conn == bitmap.Conn8 {
		return 1
	}
	return 0
}

// find returns r's root with path halving. It does not count: the
// operation counts are union's.
func (u *uf) find(r int32) int32 {
	p := u.parent
	for p[r] != r {
		p[r] = p[p[r]]
		r = p[r]
	}
	return r
}

// union links a's and b's classes under the smaller root id, folding
// the sizes into it, and counts two finds plus one union if the classes
// differed. Least-id linking keeps parents strictly decreasing (path
// halving preserves it), which is what lets the resolve sweeps replace
// per-run find chains with one sequential pass, and makes every class's
// root the run holding the canonical label.
func (u *uf) union(a, b int32) {
	u.finds += 2
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u.unions++
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	s := u.size[ra] + u.size[rb]
	u.size[ra] = s
	u.largest = max(u.largest, int(s))
}

// add appends a singleton class of the given size and returns its id.
func (u *uf) add(size int32) int32 {
	id := int32(len(u.parent))
	u.parent = append(u.parent, id)
	u.size = append(u.size, size)
	return id
}

// reset empties the union–find, keeping its capacity.
func (u *uf) reset() {
	u.parent, u.size = u.parent[:0], u.size[:0]
	u.largest, u.finds, u.unions = 0, 0, 0
}

func (lb *Labeler) stats() Stats {
	n := len(lb.runY0)
	return Stats{
		// One root resolution per run, plus union's two finds per pair.
		Runs: int64(n), Finds: int64(n) + lb.finds, Unions: lb.unions,
		// Every effective union merges two classes into one, so the class
		// count is runs − unions.
		Components: n - int(lb.unions),
		Foreground: lb.fg,
		Largest:    lb.largest,
	}
}

// growInt32 returns s with length n, reusing capacity (contents
// unspecified).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
