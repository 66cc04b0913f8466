package main

import (
	"math"
	"strings"
	"time"

	"slapcc/internal/obs"
	"slapcc/internal/stats"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns stats.Percentile of xs at q, the estimator every
// other reporting surface of the repository uses, and how many samples
// lie strictly beyond the rank it picks. xs need not be sorted; it is
// not modified. An empty input gives (0, 0).
func percentile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	// stats.Percentile reads sorted index ⌊q·(n−1)⌋, clamped to [0, n−1].
	rank := int(math.Min(math.Max(q, 0), 1) * float64(n-1))
	return stats.Percentile(xs, q), n - 1 - rank
}

// median is the 0.5 percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// jobLatency is the geometric mean, over the jobs that have samples,
// of each job's median latency in lat; job(i) is sample i's job. The
// per-job median shrugs off a stall that holds up a minority of a job's
// requests, and the geometric mean weighs every job alike, where the
// median of a pooled mix of fast and slow frames can jump between them
// as the mix or the host shifts a little. A job whose median is a miss
// makes the result +Inf.
func jobLatency(lat []float64, job func(i int) int, njobs int) float64 {
	per := make([][]float64, njobs)
	for i, x := range lat {
		per[job(i)] = append(per[job(i)], x)
	}
	logSum, n := 0.0, 0
	for _, xs := range per {
		if len(xs) > 0 {
			logSum += math.Log(median(xs))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// split is one response's Server-Timing header folded into the stages
// the benchmark reports. Server stages come from slapd's own header,
// or — behind slapfront — from the backend attempts grafted under
// fanout.strip.attempt, summed over every attempt of the request.
// Front stages are slapfront's top-level spans.
type split struct {
	Queue, Decode, Engine, Encode time.Duration // slapd tier
	FrontDecode, Fanout, Stitch   time.Duration // slapfront tier
	FrontEncode                   time.Duration
}

// attemptPrefix is where slapfront grafts each backend attempt's spans.
const attemptPrefix = "fanout.strip.attempt"

// splitServerTiming folds a parsed Server-Timing header. front selects
// whether the header came from slapfront (top-level spans are the
// coordinator's) or straight from slapd.
func splitServerTiming(entries []obs.Entry, front bool) split {
	var s split
	server := func(stage string, d time.Duration) {
		switch stage {
		case "queue":
			s.Queue += d
		case "decode":
			s.Decode += d
		case "label", "aggregate":
			s.Engine += d
		case "encode":
			s.Encode += d
		}
	}
	for _, e := range entries {
		if !front {
			if !strings.Contains(e.Name, ".") {
				server(e.Name, e.Dur)
			}
			continue
		}
		switch e.Name {
		case "decode":
			s.FrontDecode += e.Dur
		case "fanout":
			s.Fanout += e.Dur
		case "stitch":
			s.Stitch += e.Dur
		case "encode":
			s.FrontEncode += e.Dur
		default:
			if rest, ok := strings.CutPrefix(e.Name, attemptPrefix+"."); ok && !strings.Contains(rest, ".") {
				server(rest, e.Dur)
			}
		}
	}
	return s
}

// stages is the time the answering tier accounts for: its own
// top-level spans.
func (s split) stages(front bool) time.Duration {
	if front {
		return s.FrontDecode + s.Fanout + s.Stitch + s.FrontEncode
	}
	return s.Queue + s.Decode + s.Engine + s.Encode
}

// unattributed is client wall time the answering tier's stages and the
// loopback round trip do not explain: body transfer, HTTP parsing,
// scheduling delay. It may be slightly negative when the RTT estimate
// exceeds a fast request's gap.
func (s split) unattributed(wall, rtt time.Duration, front bool) time.Duration {
	return wall - s.stages(front) - rtt
}
