package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"slapcc/internal/obs"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// outcome classifies one response.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeFailed           // transport error or an unexpected status
	outcomeRefused          // 429 or 5xx: the daemon shed or lost the request
	outcomeMismatch         // answered, but the answer was wrong
)

// sample is one request: when it was due, when the generator actually
// sent it, and when its response was complete.
type sample struct {
	Due, Sent, Done time.Time
	Outcome         outcome
	Timing          []obs.Entry // the parsed Server-Timing header, on traced requests
}

// latency is measured from the due time, so a stall that delays later
// sends counts against every request it delayed.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.Sent.Sub(s.Due) }

// wall is the client-observed time from send to complete response.
func (s sample) wall() time.Duration { return s.Done.Sub(s.Sent) }

// openLoop sends request i at start + i/rate for every due time inside
// [start, start+dur), keeping at most inflight requests outstanding: a
// request whose slot is not free when due is sent late, and its
// latency still counts from its due time. send performs request i and
// classifies the response; it runs on its own goroutine. openLoop
// returns once every request has completed.
func openLoop(clk clock, start time.Time, rate float64, dur time.Duration, inflight int, send func(i int) (outcome, []obs.Entry)) []sample {
	n := requests(rate, dur)
	out := make([]sample, n)
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Taking the slot before sleeping sends at max(due, slot free),
		// the same instant as sleeping first, but keeps a fake clock
		// deterministic at inflight 1.
		sem <- struct{}{}
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		clk.SleepUntil(due)
		out[i].Due, out[i].Sent = due, clk.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, timing := send(i)
			out[i].Done = clk.Now()
			out[i].Outcome, out[i].Timing = o, timing
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}

// requests is how many requests fall due in an open loop of rate for dur.
func requests(rate float64, dur time.Duration) int { return int(dur.Seconds() * rate) }

// tally counts a pass's outcomes.
type tally struct {
	Attempted, Failed, Refused, Mismatched int
}

func (t *tally) add(ss []sample) {
	for _, s := range ss {
		t.Attempted++
		switch s.Outcome {
		case outcomeFailed:
			t.Failed++
		case outcomeRefused:
			t.Refused++
		case outcomeMismatch:
			t.Mismatched++
		}
	}
}

// misses is every attempt that did not return a correct answer.
func (t tally) misses() int { return t.Failed + t.Refused + t.Mismatched }

var inf = math.Inf(1)

// latencies returns each sample's due-time latency in milliseconds. A
// request that missed counts as +Inf, so it misses every limit and
// sorts above every success.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.Outcome != outcomeOK {
			out[i] = inf
			continue
		}
		out[i] = ms(s.latency())
	}
	return out
}

// closedLoop keeps inflight requests outstanding from now until dur
// has passed: each completion frees a slot and the next request goes
// out at once. This is the open loop's limit at a rate past capacity,
// where every send waits for a slot; the completion rate it reaches is
// the highest rate the daemons sustain without a growing backlog. Due
// and Sent are the send time. It returns the samples in send order
// once every request has completed.
func closedLoop(clk clock, dur time.Duration, inflight int, send func(i int) (outcome, []obs.Entry)) []sample {
	end := clk.Now().Add(dur)
	sem := make(chan struct{}, inflight)
	var out []*sample
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		sem <- struct{}{}
		now := clk.Now()
		if !now.Before(end) {
			break
		}
		s := &sample{Due: now, Sent: now}
		out = append(out, s)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, timing := send(i)
			s.Done = clk.Now()
			s.Outcome, s.Timing = o, timing
			<-sem
		}(i)
	}
	wg.Wait()
	ss := make([]sample, len(out))
	for i, s := range out {
		ss[i] = *s
	}
	return ss
}

// blockRates takes the correct completions inside [start, start+dur),
// in time order, cuts them into k consecutive blocks of equal count, a
// multiple of cycle where there are enough (the few completions left
// over at the end fall in no block), and returns each block's
// rate per second: its count over the time since the previous block's
// last completion (start, for the first). A block of whole corpus
// cycles holds about the same mix of frames as every other, and timing
// whole blocks rather than counting per fixed window keeps every rate a
// measured time, not a count on a grid.
func blockRates(ss []sample, start time.Time, dur time.Duration, k, cycle int) []float64 {
	end := start.Add(dur)
	var done []time.Time
	for _, s := range ss {
		if s.Outcome == outcomeOK && !s.Done.Before(start) && s.Done.Before(end) {
			done = append(done, s.Done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	size := len(done) / k
	if size >= cycle {
		size -= size % cycle
	}
	var out []float64
	prev, from := start, 0
	for b := 1; b <= k; b++ {
		to := b * size
		if to == from {
			continue
		}
		last := done[to-1]
		if d := last.Sub(prev); d > 0 {
			out = append(out, float64(to-from)/d.Seconds())
		}
		prev, from = last, to
	}
	return out
}
