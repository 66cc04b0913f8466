package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"slapcc/internal/core"
	"slapcc/internal/hostcc"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// layerReps is how many timed calls each job makes into each layer;
// a job's time is the median of its calls.
const layerReps = 5

// timeIt calls f once to warm caches and arenas, then once more under
// runtime.ReadMemStats to count the bytes one call allocates, then
// reps timed times. It returns the median time and the allocation.
func timeIt(reps int, f func()) (time.Duration, float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs)), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

// avg accumulates a per-call mean.
type avg struct {
	sum float64
	n   int
}

func (a *avg) add(x float64) { a.sum += x; a.n++ }

func (a avg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// layerAcc accumulates the per-layer timings of one corpus replay.
type layerAcc struct {
	decode, decodeAlloc                 avg
	summary, label, aggregate, lblAlloc avg
	runs, finds, unions                 avg
	hostNS, hostRuns                    float64
	roofBytes, roofNS                   float64 // label-map bytes written by Label, and its time
	sim, simAlloc, steps, sends, ufOps  avg
	simNS, simSteps                     float64
	large, stitch, json                 avg
}

// host records one request's hostcc counts and time.
func (a *layerAcc) host(st hostcc.Stats, d time.Duration) {
	a.runs.add(float64(st.Runs))
	a.finds.add(float64(st.Finds))
	a.unions.add(float64(st.Unions))
	a.hostNS += float64(d)
	a.hostRuns += float64(st.Runs)
}

// fill records a Label call that wrote a w×h label map.
func (a *layerAcc) fill(w, h int, d time.Duration) {
	a.roofBytes += float64(4 * w * h)
	a.roofNS += float64(d)
}

// layerMetrics replays the corpus through the public function of every
// layer each job's request path calls, in process and one call at a
// time. Each metric is a mean per call over the calls the workload
// makes; a layer the workload's requests never reach reports 0.
func (b *bench) layerMetrics() ([]metric, error) {
	var a layerAcc
	lb := hostcc.NewLabeler()
	for i := range b.jobs {
		j := &b.jobs[i]
		img, conn := j.Img, j.Conn
		d, alloc := timeIt(layerReps, func() {
			if _, err := imageio.DecodeBytes(j.Body, imageio.FormatAuto, imageio.DefaultLimits()); err != nil {
				panic(err) // the daemons already decoded these bytes
			}
		})
		a.decode.add(ms(d))
		a.decodeAlloc.add(alloc)

		opt, err := server.OptionsFromParams(core.Options{}, j.Params, img.W(), img.H())
		if err != nil {
			return nil, err
		}
		var resp any // what the server encodes for this job
		switch j.Kind {
		case kindSummary:
			var st hostcc.Stats
			d, _ := timeIt(layerReps, func() { st = lb.Summary(img, conn) })
			a.summary.add(ms(d))
			a.host(st, d)
			opt.SkipLabels = true
			res, err := core.Label(img, opt)
			if err != nil {
				return nil, err
			}
			resp = server.ToLabelResponse(res, false)
		case kindLabels:
			var st hostcc.Stats
			d, alloc := timeIt(layerReps, func() { _, st = lb.Label(img, conn) })
			a.label.add(ms(d))
			a.lblAlloc.add(alloc)
			a.host(st, d)
			a.fill(img.W(), img.H(), d)
			res, err := core.Label(img, opt)
			if err != nil {
				return nil, err
			}
			resp = server.ToLabelResponse(res, true)
		case kindAggregate:
			ones, sum := core.Ones(img), core.Sum()
			var st hostcc.Stats
			d, alloc := timeIt(layerReps, func() { _, _, st = lb.Aggregate(img, ones, sum.Identity, sum.Combine, conn) })
			a.aggregate.add(ms(d))
			a.lblAlloc.add(alloc)
			a.host(st, d)
			res, err := core.Aggregate(img, ones, sum, opt)
			if err != nil {
				return nil, err
			}
			resp = server.ToAggregateResponse(res, sum.Name, true)
		case kindSim:
			var res *core.Result
			d, alloc := timeIt(layerReps, func() {
				var err error
				if res, err = core.Label(img, opt); err != nil {
					panic(err) // the reference run already succeeded
				}
			})
			a.sim.add(ms(d))
			a.simAlloc.add(alloc)
			a.steps.add(float64(res.Metrics.Time))
			a.sends.add(float64(res.Metrics.Sends))
			a.ufOps.add(float64(res.UF.Finds + res.UF.Unions))
			a.simNS += float64(d)
			a.simSteps += float64(res.Metrics.Time)
			resp = server.ToLabelResponse(res, false)
		case kindStrips:
			res, err := stripLayers(j, opt, lb, &a)
			if err != nil {
				return nil, err
			}
			resp = server.ToLabelResponse(res, false)
		}
		d, _ = timeIt(layerReps, func() {
			if _, err := json.Marshal(resp); err != nil {
				panic(err) // wire types always encode
			}
		})
		a.json.add(ms(d))
	}

	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// bytes/ns is GB/s, the probe's unit.
	roof := ratio(ratio(a.roofBytes, a.roofNS), b.roof.MemcpyGBs)
	return []metric{
		{Name: "imageio.decode_ms", Value: a.decode.mean(), Unit: "ms"},
		{Name: "imageio.decode_alloc_kb", Value: a.decodeAlloc.mean(), Unit: "KiB"},
		{Name: "hostcc.summary_ms", Value: a.summary.mean(), Unit: "ms"},
		{Name: "hostcc.label_ms", Value: a.label.mean(), Unit: "ms"},
		{Name: "hostcc.aggregate_ms", Value: a.aggregate.mean(), Unit: "ms"},
		{Name: "hostcc.label_alloc_kb", Value: a.lblAlloc.mean(), Unit: "KiB"},
		{Name: "hostcc.runs", Value: a.runs.mean(), Unit: "count"},
		{Name: "hostcc.finds", Value: a.finds.mean(), Unit: "count"},
		{Name: "hostcc.unions", Value: a.unions.mean(), Unit: "count"},
		{Name: "hostcc.ns_per_run", Value: ratio(a.hostNS, a.hostRuns), Unit: "ns"},
		{Name: "hostcc.label_roofline", Value: roof, Unit: "ratio"},
		{Name: "slap.label_ms", Value: a.sim.mean(), Unit: "ms"},
		{Name: "slap.ns_per_step", Value: ratio(a.simNS, a.simSteps), Unit: "ns"},
		{Name: "slap.alloc_kb", Value: a.simAlloc.mean(), Unit: "KiB"},
		{Name: "slap.steps", Value: a.steps.mean(), Unit: "count"},
		{Name: "slap.sends", Value: a.sends.mean(), Unit: "count"},
		{Name: "unionfind.ops", Value: a.ufOps.mean(), Unit: "count"},
		{Name: "core.labellarge_ms", Value: a.large.mean(), Unit: "ms"},
		{Name: "core.stitch_ms", Value: a.stitch.mean(), Unit: "ms"},
		{Name: "server.json_ms", Value: a.json.mean(), Unit: "ms"},
	}, nil
}

// stripLayers times a strip-mined job the way the cluster runs it:
// hostcc labels each array-width strip (what each backend does), and
// core.ComposeStrips stitches the strip runs (slapfront's stitch).
// core.labellarge_ms times LabelLarge on the whole frame under the
// same options for comparison; the host engine answers it in one
// whole-image pass, so the stitch is timed directly instead of as
// the difference. It returns the composed result the front encodes.
func stripLayers(j *job, opt core.Options, lb *hostcc.Labeler, a *layerAcc) (*core.Result, error) {
	img := j.Img
	stripOpt := opt
	stripOpt.ArrayWidth = 0
	var runs []core.StripRun
	var total time.Duration
	var totalAlloc float64
	var st hostcc.Stats
	for x0 := 0; x0 < img.W(); x0 += opt.ArrayWidth {
		sub := img.SubImage(x0, 0, min(opt.ArrayWidth, img.W()-x0), img.H())
		var s hostcc.Stats
		d, alloc := timeIt(layerReps, func() { _, s = lb.Label(sub, j.Conn) })
		total += d
		totalAlloc += alloc
		st.Runs, st.Finds, st.Unions = st.Runs+s.Runs, st.Finds+s.Finds, st.Unions+s.Unions
		a.fill(sub.W(), sub.H(), d)
		res, err := core.Label(sub, stripOpt)
		if err != nil {
			return nil, err
		}
		runs = append(runs, core.StripRun{Labels: res.Labels, Metrics: res.Metrics, UF: res.UF})
	}
	a.label.add(ms(total))
	a.lblAlloc.add(totalAlloc)
	a.host(st, total)

	d, _ := timeIt(layerReps, func() {
		if _, err := core.LabelLarge(img, opt); err != nil {
			panic(err) // the daemons already labeled this frame
		}
	})
	a.large.add(ms(d))
	var res *core.Result
	d, _ = timeIt(layerReps, func() {
		var err error
		if res, err = core.ComposeStrips(img, runs, opt); err != nil {
			panic(err) // the strips are the frame's own
		}
	})
	a.stitch.add(ms(d))
	return res, nil
}

// roofline is the same-run memory bandwidth probe the host engine's
// label fill is judged against.
type roofline struct {
	LLCMiB    float64 `json:"llc_mib"`
	ArrayMiB  float64 `json:"array_mib"`
	MemcpyGBs float64 `json:"memcpy_gb_s"`
	MemsetGBs float64 `json:"memset_gb_s"`
}

// rooflineCapMiB bounds each probe array: on a machine whose last-level
// cache is large, 4× it would not fit beside other tenants' memory, and
// the probe then measures partly from cache. Both sizes are reported.
const rooflineCapMiB = 128

func probeRoofline() *roofline {
	llc := lastLevelCacheBytes()
	size := 4 * llc
	if size <= 0 || size > rooflineCapMiB<<20 {
		size = rooflineCapMiB << 20
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault every page in before timing
	bw := func(f func()) float64 {
		d, _ := timeIt(layerReps, f)
		return float64(size) / float64(d) // bytes/ns is GB/s
	}
	r := &roofline{
		LLCMiB:    float64(llc) / (1 << 20),
		ArrayMiB:  float64(size) / (1 << 20),
		MemcpyGBs: bw(func() { copy(dst, src) }),
		MemsetGBs: bw(func() { clear(dst) }),
	}
	return r
}

func (r *roofline) metrics() []metric {
	return []metric{
		{Name: "roofline.memcpy_gb_s", Value: r.MemcpyGBs, Unit: "GB/s", Note: fmt.Sprintf("%.0f MiB arrays", r.ArrayMiB)},
		{Name: "roofline.memset_gb_s", Value: r.MemsetGBs, Unit: "GB/s", Note: fmt.Sprintf("%.0f MiB arrays", r.ArrayMiB)},
		{Name: "roofline.array_mib", Value: r.ArrayMiB, Unit: "MiB"},
		{Name: "roofline.llc_mib", Value: r.LLCMiB, Unit: "MiB"},
	}
}

// lastLevelCacheBytes reads the highest-level cache size of CPU 0 from
// sysfs; 0 when unknown.
func lastLevelCacheBytes() int {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := 0, -1
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			continue
		}
		if level > bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}
