package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"slapcc/internal/bitmap"
	"slapcc/internal/obs"
)

// setupRepeats is how many times a run starts its fleet from exec to
// first verified answer; setup_s is the median.
const setupRepeats = 21

// warmup is run at the nominal rate before any timed pass, so
// connections, daemon arenas and the hedge timer's history are warm.
const warmup = time.Second

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    uint64
	seconds float64
	binDir  string
	log     io.Writer

	jobs  []job
	order []int // job of the run's k-th request: one seeded shuffle per corpus cycle, under mu
	rng   *bitmap.RNG
	ver   *verifier
	hc    *http.Client
	fl    *fleet
	next  int // requests issued so far, so each pass continues the order
	tally tally
	roof  *roofline

	mu       sync.Mutex
	mismatch string // the first wrong answer seen, under mu
}

// inflight is the generator's concurrency cap: one request per CPU.
func inflight() int { return runtime.NumCPU() }

// prepare draws the corpus from the seed and computes every job's
// reference answer.
func (b *bench) prepare() error {
	jobs, err := b.w.corpus(b.w, b.seed)
	if err != nil {
		return err
	}
	b.jobs = jobs
	b.rng = bitmap.NewRNG(mix(b.seed, 0x0DE5))
	if b.ver, err = newVerifier(jobs); err != nil {
		return err
	}
	b.hc = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4 * inflight(),
			DisableCompression:  true,
		},
	}
	return nil
}

// startVerified execs the fleet and returns the time from exec until
// every daemon is healthy and the entry daemon has returned its first
// verified answer, to the corpus's first job (the same family and size
// for every seed). The fleet is left running in b.fl.
func (b *bench) startVerified() (time.Duration, error) {
	t0 := time.Now()
	fl, err := startFleet(b.binDir, b.w.Front)
	if err != nil {
		return 0, err
	}
	if err := fl.waitHealthy(b.hc, 30*time.Second); err != nil {
		fl.stop()
		return 0, err
	}
	b.fl = fl
	if err := b.acceptJob(0); err != nil {
		fl.stop()
		b.fl = nil
		return 0, err
	}
	return time.Since(t0), nil
}

// acceptJob sends job i once and checks the answer in full.
func (b *bench) acceptJob(i int) error {
	body, status, _, err := b.post(i, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: http %d: %s", b.jobs[i].Name, status, bytes.TrimSpace(body))
	}
	if err := b.ver.accept(b.jobs, i, body); err != nil {
		return fmt.Errorf("wrong answer: %w", err)
	}
	return nil
}

// acceptAll verifies every job's answer in full before timing starts.
func (b *bench) acceptAll() error {
	for i := range b.jobs {
		if err := b.acceptJob(i); err != nil {
			return err
		}
		b.tally.Attempted++
	}
	return nil
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// post sends job i to the fleet's entry daemon. With buf nil the body
// is returned in fresh memory; otherwise it is read into buf.
func (b *bench) post(i int, buf *bytes.Buffer) (body []byte, status int, timing string, err error) {
	j := &b.jobs[i]
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, b.fl.entry().url()+j.Path, bytes.NewReader(j.Body))
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("Content-Type", j.CType)
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, 0, "", err
	}
	return buf.Bytes(), resp.StatusCode, resp.Header.Get("Server-Timing"), nil
}

// send is one generated request: it posts job i and classifies the
// answer. With readTiming it also parses the answer's Server-Timing
// header, the work a client pays to read the daemons' trace.
func (b *bench) send(i int, readTiming bool) (outcome, []obs.Entry) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	body, status, timing, err := b.post(i, buf)
	switch {
	case err != nil:
		return outcomeFailed, nil
	case status == http.StatusTooManyRequests || status >= 500:
		return outcomeRefused, nil
	case status != http.StatusOK:
		return outcomeFailed, nil
	}
	if err := b.ver.verify(b.jobs, i, body); err != nil {
		b.mu.Lock()
		if b.mismatch == "" {
			b.mismatch = err.Error()
		}
		b.mu.Unlock()
		return outcomeMismatch, nil
	}
	if !readTiming {
		return outcomeOK, nil
	}
	return outcomeOK, obs.ParseServerTiming(timing)
}

// jobAt returns the job of the run's k-th request, extending the
// request order by whole corpus cycles as needed. Each cycle sends every
// job once in a fresh seeded shuffle, so the jobs that arrive back to
// back, and so queue behind each other, change from cycle to cycle
// rather than from seed to seed.
func (b *bench) jobAt(k int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.order) <= k {
		c := len(b.order)
		for i := range b.jobs {
			b.order = append(b.order, i)
		}
		cycle := b.order[c:]
		for i := len(cycle) - 1; i > 0; i-- {
			r := b.rng.Intn(i + 1)
			cycle[i], cycle[r] = cycle[r], cycle[i]
		}
	}
	return b.order[k]
}

// pass runs the open loop at rate for dur, continuing the request
// order. With traced, the requests readsTiming picks parse their
// Server-Timing header.
func (b *bench) pass(rate float64, dur time.Duration, traced bool) []sample {
	base := b.next
	ss := openLoop(realClock{}, time.Now(), rate, dur, inflight(), func(i int) (outcome, []obs.Entry) {
		k := base + i
		return b.send(b.jobAt(k), traced && b.readsTiming(k))
	})
	b.next += len(ss)
	b.tally.add(ss)
	return ss
}

// capacity runs the closed loop for dur, continuing the request order,
// and returns the rates of its capacityBlocks blocks of completions.
func (b *bench) capacity(dur time.Duration) []float64 {
	base := b.next
	start := time.Now()
	ss := closedLoop(realClock{}, dur, inflight(), func(i int) (outcome, []obs.Entry) {
		return b.send(b.jobAt(base+i), false)
	})
	b.next += len(ss)
	b.tally.add(ss)
	rates := blockRates(ss, start, dur, capacityBlocks, len(b.jobs))
	fmt.Fprintf(b.log, "perfbench: %s closed loop: %d requests, block rates %.1f req/s\n", b.w.Name, len(ss), rates)
	return rates
}

// setUp prepares the corpus, starts the fleet setupRepeats times (the
// last one stays up), verifies every job, and warms up. It returns the
// set-up times in seconds.
func (b *bench) setUp(repeats int) ([]float64, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		if b.fl != nil {
			b.fl.stop()
			b.fl = nil
		}
		d, err := b.startVerified()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	if err := b.acceptAll(); err != nil {
		return nil, err
	}
	b.pass(b.w.Nominal, warmup, false)
	return setups, nil
}

// readsTiming reports whether the run's k-th request parses its
// Server-Timing header on a traced pass: half the jobs of each corpus
// cycle, the other half in the next, so that over two consecutive
// cycles both halves send every job once.
func (b *bench) readsTiming(k int) bool {
	return (b.jobAt(k)+k/len(b.jobs))%2 == 1
}

func (b *bench) stop() {
	if b.fl != nil {
		b.fl.stop()
		b.fl = nil
	}
}

// finish builds the result shell: correctness and the tally.
func (b *bench) finish(ms []metric) *result {
	return &result{Correct: b.mismatch == "", Tally: b.tally, Metrics: ms, Mismatch: b.mismatch}
}

// An end-to-end run alternates rounds times between the open loop at
// the nominal rate (nominalShare of its measured seconds in all) and the
// closed loop that measures capacity (the rest), cutting each closed
// loop's completions into capacityBlocks blocks. Alternating spreads
// both measurements over the whole run, so a slow spell of the host
// weighs on each about equally and on neither alone.
const (
	rounds         = 4
	nominalShare   = 0.6
	capacityBlocks = 4
)

// endToEnd is the untraced run: latency and CPU at the nominal rate,
// and the sustained rate of the closed loop.
func (b *bench) endToEnd() (*result, error) {
	defer b.stop()
	setups, err := b.setUp(setupRepeats)
	if err != nil {
		return nil, err
	}
	w := b.w
	var (
		lat       []float64
		jobs      []int
		rates     []float64
		cpu       float64
		completed int
	)
	for r := 0; r < rounds; r++ {
		cpu0, err := b.fl.cpuSeconds()
		if err != nil {
			return nil, err
		}
		base := b.next
		nominal := b.pass(w.Nominal, seconds(b.seconds*nominalShare/rounds), false)
		cpu1, err := b.fl.cpuSeconds()
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		lat = append(lat, latencies(nominal)...)
		for i, s := range nominal {
			jobs = append(jobs, b.jobAt(base+i))
			if s.Outcome == outcomeOK {
				completed++
			}
		}
		rates = append(rates, b.capacity(seconds(b.seconds*(1-nominalShare)/rounds))...)
	}
	p50 := jobLatency(lat, func(i int) int { return jobs[i] }, len(b.jobs))
	p99, beyond := percentile(lat, 0.99)
	rss, err := b.fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	return b.finish([]metric{
		{Name: "latency_p50_ms", Value: p50, Unit: "ms", Note: fmt.Sprintf("geometric mean of %d job medians, n=%d at %.1f req/s; p99 %.3f ms, %d beyond",
			len(b.jobs), len(lat), w.Nominal, p99, beyond)},
		{Name: "max_rate_rps", Value: median(rates), Unit: "1/s", Note: fmt.Sprintf("median of %d blocks, %d in flight", len(rates), inflight())},
		{Name: "cpu_ms_per_req", Value: cpu * 1000 / float64(max(completed, 1)), Unit: "ms", Note: fmt.Sprintf("%d completed", completed)},
		{Name: "peak_rss_mb", Value: rss, Unit: "MiB"},
		{Name: "setup_s", Value: median(setups), Unit: "s", Note: fmt.Sprintf("median of %d", len(setups))},
	}), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedShare is the share of a traced run's measured seconds spent at
// the nominal rate against the daemons.
const tracedShare = 0.5

// traced is the per-layer run: one pass at the nominal rate against the
// daemons in which every other request reads its Server-Timing header,
// then the corpus timed through each layer in process, then the
// roofline probe.
//
// slapd and slapfront trace every request whatever the client does, so
// the daemons do the same work for both halves of the pass. What
// trace_overhead compares is the client side: the latency, as
// latency_p50_ms takes it, of the requests that parse their header over
// that of the interleaved ones that do not. Interleaving keeps host
// drift out of the ratio.
func (b *bench) traced() (*result, error) {
	defer b.stop()
	if _, err := b.setUp(1); err != nil {
		return nil, err
	}
	w := b.w
	rtt, err := b.loopbackRTT(50)
	if err != nil {
		return nil, err
	}

	before, err := b.scrapeAll()
	if err != nil {
		return nil, err
	}
	ru0 := selfCPU()
	base := b.next
	ss := b.pass(w.Nominal, seconds(b.seconds*tracedShare), true)
	genCPU := (selfCPU() - ru0) * 1000 / float64(len(ss))
	after, err := b.scrapeAll()
	if err != nil {
		return nil, err
	}
	var plain, read []sample
	var plainJobs, readJobs []int
	late := make([]float64, len(ss))
	for i, s := range ss {
		late[i] = ms(s.late())
		if b.readsTiming(base + i) {
			read, readJobs = append(read, s), append(readJobs, b.jobAt(base+i))
		} else {
			plain, plainJobs = append(plain, s), append(plainJobs, b.jobAt(base+i))
		}
	}
	readLat := jobLatency(latencies(read), func(i int) int { return readJobs[i] }, len(b.jobs))
	plainLat := jobLatency(latencies(plain), func(i int) int { return plainJobs[i] }, len(b.jobs))
	lateP99, _ := percentile(late, 0.99)

	out := b.stageMetrics(ss, read, rtt, before, after)
	out = append(out,
		metric{Name: "trace_overhead", Value: readLat / plainLat, Unit: "ratio",
			Note: fmt.Sprintf("%d header-reading ÷ %d interleaved plain requests", len(read), len(plain))},
		metric{Name: "loadgen.late_p99_ms", Value: lateP99, Unit: "ms"},
		metric{Name: "loadgen.cpu_ms_per_req", Value: genCPU, Unit: "ms"},
	)
	b.stop()

	b.roof = probeRoofline()
	out = append(out, b.roof.metrics()...)
	lm, err := b.layerMetrics()
	if err != nil {
		return nil, err
	}
	out = append(out, lm...)
	share := float64(b.tally.misses()) / float64(max(b.tally.Attempted, 1))
	out = append(out, metric{Name: "failed_share", Value: share, Unit: "ratio"})
	return b.finish(out), nil
}

// loopbackRTT is the median wall time of n /healthz round trips to the
// entry daemon: the wire and HTTP cost every request pays.
func (b *bench) loopbackRTT(n int) (time.Duration, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := b.hc.Get(b.fl.entry().url() + "/healthz")
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs)), nil
}

// selfCPU is this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// scrapeAll reads every daemon's /metrics, front first.
func (b *bench) scrapeAll() ([]promSample, error) {
	var out []promSample
	for _, d := range b.fl.all() {
		p, err := scrape(context.Background(), b.hc, d)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// stageMetrics turns the Server-Timing headers of the header-reading
// requests (read) and the /metrics deltas over the whole pass (all)
// into the server.* and cluster.* metrics. Stage times are means per
// completed request, so they add up to the wall time.
func (b *bench) stageMetrics(all, read []sample, rtt time.Duration, before, after []promSample) []metric {
	front := b.w.Front
	var q, dec, eng, enc, fdec, fan, sti, un []float64
	for _, s := range read {
		if s.Outcome != outcomeOK {
			continue
		}
		sp := splitServerTiming(s.Timing, front)
		q, dec, eng, enc = append(q, ms(sp.Queue)), append(dec, ms(sp.Decode)), append(eng, ms(sp.Engine)), append(enc, ms(sp.Encode))
		fdec, fan, sti = append(fdec, ms(sp.FrontDecode)), append(fan, ms(sp.Fanout)), append(sti, ms(sp.Stitch))
		un = append(un, ms(sp.unattributed(s.wall(), rtt, front)))
	}
	delta := func(metric string, from int) float64 {
		d := 0.0
		for k := from; k < len(after); k++ {
			d += after[k].sum(metric) - before[k].sum(metric)
		}
		return d
	}
	slapdFrom := 0
	if front {
		slapdFrom = 1
	}
	out := []metric{
		{Name: "server.queue_ms", Value: mean(q), Unit: "ms"},
		{Name: "server.decode_ms", Value: mean(dec), Unit: "ms"},
		{Name: "server.engine_ms", Value: mean(eng), Unit: "ms"},
		{Name: "server.encode_ms", Value: mean(enc), Unit: "ms"},
		{Name: "server.unattributed_ms", Value: mean(un), Unit: "ms", Note: fmt.Sprintf("loopback RTT %.3f ms", ms(rtt))},
		{Name: "server.rejected", Value: delta("slapd_rejected_total", slapdFrom) + delta("slapd_deadline_rejected_total", slapdFrom), Unit: "count"},
	}
	var attempts, hedgeWin, fallbacks float64
	if front {
		completed := 0
		for _, s := range all {
			if s.Outcome == outcomeOK {
				completed++
			}
		}
		strips := float64(completed * b.stripsPerRequest())
		attempts = (after[0].sum("slapfront_jobs_total") - before[0].sum("slapfront_jobs_total")) / max(strips, 1)
		if h := after[0].sum("slapfront_hedges_total") - before[0].sum("slapfront_hedges_total"); h > 0 {
			hedgeWin = (after[0].sum("slapfront_hedge_wins_total") - before[0].sum("slapfront_hedge_wins_total")) / h
		}
		fallbacks = after[0].sum("slapfront_local_fallbacks_total") - before[0].sum("slapfront_local_fallbacks_total")
	}
	return append(out,
		metric{Name: "cluster.decode_ms", Value: mean(fdec), Unit: "ms"},
		metric{Name: "cluster.fanout_ms", Value: mean(fan), Unit: "ms"},
		metric{Name: "cluster.stitch_ms", Value: mean(sti), Unit: "ms"},
		metric{Name: "cluster.attempts_per_strip", Value: attempts, Unit: "ratio"},
		metric{Name: "cluster.hedge_win_share", Value: hedgeWin, Unit: "ratio"},
		metric{Name: "cluster.local_fallbacks", Value: fallbacks, Unit: "count"},
	)
}

// stripsPerRequest is how many strips slapfront cuts each frame into.
func (b *bench) stripsPerRequest() int {
	if b.w.Array <= 0 {
		return 1
	}
	return (b.w.Sizes[0][0] + b.w.Array - 1) / b.w.Array
}
