package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"slapcc/internal/bitmap"
	"slapcc/internal/obs"
)

// fakeClock advances only when the generator sleeps or a fake request
// takes time, so open-loop schedules replay exactly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

var epoch = time.Unix(1_700_000_000, 0)

// serve runs an open loop at rate for dur, one request in flight, where
// every request takes service on the fake clock.
func serve(rate float64, dur, service time.Duration) []sample {
	clk := &fakeClock{now: epoch}
	return openLoop(clk, epoch, rate, dur, 1, func(int) (outcome, []obs.Entry) {
		clk.advance(service)
		return outcomeOK, nil
	})
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// 100 req/s is a request every 10 ms; each takes 15 ms, so every
	// send slips 5 ms further behind its due time.
	ss := serve(100, 50*time.Millisecond, 15*time.Millisecond)
	if len(ss) != 5 {
		t.Fatalf("sent %d requests, want 5", len(ss))
	}
	for i, s := range ss {
		wantLat := time.Duration(15+5*i) * time.Millisecond
		wantLate := time.Duration(5*i) * time.Millisecond
		if s.latency() != wantLat || s.late() != wantLate || s.wall() != 15*time.Millisecond {
			t.Errorf("request %d: latency %v late %v wall %v, want %v %v 15ms", i, s.latency(), s.late(), s.wall(), wantLat, wantLate)
		}
	}
}

func TestLatencyUnderCapacity(t *testing.T) {
	for i, s := range serve(100, 100*time.Millisecond, 4*time.Millisecond) {
		if s.latency() != 4*time.Millisecond || s.late() != 0 {
			t.Errorf("request %d: latency %v late %v, want 4ms and on time", i, s.latency(), s.late())
		}
	}
}

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	// stats.Percentile reads index ⌊0.99·998⌋ = 988 of 999 samples.
	if v, beyond := percentile(xs[:999], 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 2..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if m := median(xs); m != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", m)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if v, beyond := percentile(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("p99 of nothing = %v, %d", v, beyond)
	}
}

func TestJobLatency(t *testing.T) {
	// Two jobs, 1 ms and 16 ms, sent alternately: the geometric mean of
	// their medians is 4 ms, and a stall that holds up a third of each
	// job's requests leaves it there.
	lat := make([]float64, 600)
	for i := range lat {
		lat[i] = float64(1 + 15*(i%2))
	}
	job := func(i int) int { return i % 2 }
	if got := jobLatency(lat, job, 2); math.Abs(got-4) > 1e-9 {
		t.Errorf("job latency = %v, want 4", got)
	}
	for i := 200; i < 400; i++ {
		lat[i] = 1000
	}
	if got := jobLatency(lat, job, 2); math.Abs(got-4) > 1e-9 {
		t.Errorf("job latency with a stall = %v, want 4", got)
	}
	// A job with no samples is left out; a job whose median is a miss
	// makes the whole figure a miss.
	if got := jobLatency(lat[:1], job, 3); got != 1 {
		t.Errorf("job latency of one 1 ms sample = %v, want 1", got)
	}
	if got := jobLatency([]float64{inf, inf, 2}, func(int) int { return 0 }, 1); !math.IsInf(got, 1) {
		t.Errorf("job latency with mostly misses = %v, want +Inf", got)
	}
}

func TestMissesCountAgainstLatency(t *testing.T) {
	ss := serve(100, 100*time.Millisecond, time.Millisecond)
	ss[3].Outcome = outcomeRefused
	lat := latencies(ss)
	if !math.IsInf(lat[3], 1) {
		t.Errorf("refused request latency %v, want +Inf", lat[3])
	}
	if p100, _ := percentile(lat, 1); !math.IsInf(p100, 1) {
		t.Errorf("max latency %v, want the miss at +Inf", p100)
	}
	var ta tally
	ta.add(ss)
	if ta.Attempted != 10 || ta.misses() != 1 {
		t.Errorf("tally %+v, want 10 attempted, 1 miss", ta)
	}
}

func TestClosedLoopRate(t *testing.T) {
	// One request in flight at 4 ms each completes 250 a second; a
	// 200 ms stall inside the fourth of eight windows empties most of
	// it, but leaves the median at the steady rate.
	clk := &fakeClock{now: epoch}
	ss := closedLoop(clk, 2*time.Second, 1, func(i int) (outcome, []obs.Entry) {
		if clk.Now().Sub(epoch) == 760*time.Millisecond {
			clk.advance(200 * time.Millisecond)
		}
		clk.advance(4 * time.Millisecond)
		if i == 10 {
			return outcomeRefused, nil
		}
		return outcomeOK, nil
	})
	for i, s := range ss {
		if s.Due != s.Sent || (i > 0 && s.Sent != ss[i-1].Done) {
			t.Fatalf("request %d sent at %v, want as soon as request %d was done", i, s.Sent.Sub(epoch), i-1)
		}
	}
	if last := ss[len(ss)-1]; last.Sent.Sub(epoch) >= 2*time.Second || last.Done.Sub(epoch) < 2*time.Second {
		t.Errorf("last request sent at %v, done at %v: want sent before and done at or after 2s", last.Sent.Sub(epoch), last.Done.Sub(epoch))
	}
	// 449 correct completions in 2 s, 56 to a block: block 3 holds the
	// stall, block 0 the refused request.
	rates := blockRates(ss, epoch, 2*time.Second, 8, 1)
	if len(rates) != 8 {
		t.Fatalf("%d block rates, want 8", len(rates))
	}
	for k, r := range rates {
		slow := k == 3
		if slow != (r < 200) || r > 252 {
			t.Errorf("block %d: %v req/s, want %s", k, r, map[bool]string{false: "about 250", true: "under 200"}[slow])
		}
	}
	if m := median(rates); m < 248 || m > 252 {
		t.Errorf("median block rate %v, want 250±2", m)
	}
}

func TestServerTimingSplit(t *testing.T) {
	near := func(what string, got time.Duration, wantMS float64) {
		t.Helper()
		if math.Abs(ms(got)-wantMS) > 1e-6 {
			t.Errorf("%s = %v ms, want %v", what, ms(got), wantMS)
		}
	}
	slapd := splitServerTiming(obs.ParseServerTiming(
		"queue;dur=0.5, decode;dur=1.25, label;dur=7, label.pool;dur=0.01, encode;dur=0.25"), false)
	near("queue", slapd.Queue, 0.5)
	near("decode", slapd.Decode, 1.25)
	near("engine", slapd.Engine, 7) // label.pool nests inside label
	near("encode", slapd.Encode, 0.25)
	near("stages", slapd.stages(false), 9)
	near("unattributed", slapd.unattributed(10500*time.Microsecond, 200*time.Microsecond, false), 1.3)

	agg := splitServerTiming(obs.ParseServerTiming("queue;dur=0.1, decode;dur=2, aggregate;dur=5, encode;dur=3"), false)
	near("aggregate engine", agg.Engine, 5)

	front := splitServerTiming(obs.ParseServerTiming("decode;dur=0.3, fanout;dur=20, "+
		"fanout.strip;dur=10, fanout.strip.attempt;dur=9, fanout.strip.attempt.queue;dur=0.01, "+
		"fanout.strip.attempt.decode;dur=0.4, fanout.strip.attempt.label;dur=2, "+
		"fanout.strip.attempt.label.pool;dur=0.003, fanout.strip.attempt.encode;dur=3, "+
		"fanout.strip;dur=12, fanout.strip.attempt;dur=11, fanout.strip.attempt.decode;dur=0.5, "+
		"fanout.strip.attempt.label;dur=2.5, fanout.strip.attempt.encode;dur=3.5, "+
		"stitch;dur=2, encode;dur=0.1"), true)
	near("front decode", front.FrontDecode, 0.3)
	near("fanout", front.Fanout, 20)
	near("stitch", front.Stitch, 2)
	near("front encode", front.FrontEncode, 0.1)
	near("front stages", front.stages(true), 22.4)
	near("backend queue", front.Queue, 0.01)
	near("backend decode", front.Decode, 0.9)
	near("backend engine", front.Engine, 4.5)
	near("backend encode", front.Encode, 6.5)
	near("front unattributed", front.unattributed(25*time.Millisecond, 100*time.Microsecond, true), 2.5)
}

func TestParseProm(t *testing.T) {
	p := parseProm("# HELP x\nslapfront_jobs_total{backend=\"a\",outcome=\"ok\"} 3\n" +
		"slapfront_jobs_total{backend=\"b\",outcome=\"busy\"} 2\nslapfront_jobs_total_x 9\nslapd_rejected_total 4\n")
	if got := p.sum("slapfront_jobs_total"); got != 5 {
		t.Errorf("jobs sum = %v, want 5", got)
	}
	if got := p.sum("slapd_rejected_total"); got != 4 {
		t.Errorf("rejected = %v, want 4", got)
	}
}

func TestRequestOrderAndTimingHalves(t *testing.T) {
	// Every corpus cycle sends each job once, and over two consecutive
	// cycles each job is sent once reading its Server-Timing header and
	// once not, for odd and even corpora.
	for _, n := range []int{1, 6, 7, 14} {
		b := &bench{jobs: make([]job, n), rng: bitmap.NewRNG(uint64(n))}
		b.jobAt(5 * n)
		if len(b.order) != 6*n {
			t.Fatalf("corpus of %d: order of %d requests, want 6 whole cycles", n, len(b.order))
		}
		for c := 0; c < 6; c += 2 {
			sent := make([]int, n)
			read := make([]int, n)
			for k := c * n; k < (c+2)*n; k++ {
				sent[b.order[k]]++
				if b.readsTiming(k) {
					read[b.order[k]]++
				}
			}
			for job := range sent {
				if sent[job] != 2 || read[job] != 1 {
					t.Errorf("corpus of %d, cycles %d–%d: job %d sent %d times, read %d, want 2 and 1", n, c, c+1, job, sent[job], read[job])
				}
			}
		}
	}
}
