package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/seqcc"
	"slapcc/internal/server"
)

// reference is a job's expected answer. Everything but the simulated
// time comes from internal/seqcc, the sequential labelers, not from
// the engine under test; the simulated time has no other source than
// an in-process run of core.Label under the options slapd resolves.
type reference struct {
	W, H                          int
	Components, Foreground, Large int
	Labels                        []int32 // column-major; labels and aggregate jobs
	PerPixel                      []int32 // component areas; aggregate jobs
	TimeSteps                     int64   // sim jobs
}

func newReference(j *job) (*reference, error) {
	lm := seqcc.BFSConn(j.Img, j.Conn)
	st := seqcc.Summarize(lm)
	ref := &reference{W: j.Img.W(), H: j.Img.H(), Components: st.Components, Foreground: st.Foreground, Large: st.Largest}
	switch j.Kind {
	case kindLabels, kindAggregate:
		ref.Labels = flatten(lm)
		if j.Kind == kindAggregate {
			ref.PerPixel = seqcc.AggregateRef(j.Img, core.Ones(j.Img), func(a, b int32) int32 { return a + b }, 0)
		}
	case kindSim:
		opt, err := server.OptionsFromParams(core.Options{}, j.Params, j.Img.W(), j.Img.H())
		if err != nil {
			return nil, err
		}
		res, err := core.Label(j.Img, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: in-process simulator: %w", j.Name, err)
		}
		ref.TimeSteps = res.Metrics.Time
	}
	return ref, nil
}

func flatten(lm *bitmap.LabelMap) []int32 {
	out := make([]int32, 0, lm.W()*lm.H())
	for x := 0; x < lm.W(); x++ {
		out = append(out, lm.ColumnSlice(x)...)
	}
	return out
}

// check decodes a response body and compares it with the reference:
// the summary always, full label arrays and folds where the job asked
// for them, the simulated time on simulator jobs.
func (ref *reference) check(j *job, body []byte) error {
	var r api.AggregateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: undecodable response: %w", j.Name, err)
	}
	if r.Width != ref.W || r.Height != ref.H {
		return fmt.Errorf("%s: dims %dx%d, want %dx%d", j.Name, r.Width, r.Height, ref.W, ref.H)
	}
	if r.Components != ref.Components || r.Foreground != ref.Foreground || r.Largest != ref.Large {
		return fmt.Errorf("%s: components/foreground/largest %d/%d/%d, want %d/%d/%d", j.Name,
			r.Components, r.Foreground, r.Largest, ref.Components, ref.Foreground, ref.Large)
	}
	if err := equalInt32(j.Name+": labels", r.Labels, ref.Labels); err != nil {
		return err
	}
	if err := equalInt32(j.Name+": per_pixel", r.PerPixel, ref.PerPixel); err != nil {
		return err
	}
	if j.Kind == kindAggregate && r.Op != "sum" {
		return fmt.Errorf("%s: op %q, want sum", j.Name, r.Op)
	}
	if j.Kind == kindSim && r.Metrics.TimeSteps != ref.TimeSteps {
		return fmt.Errorf("%s: time_steps %d, want %d", j.Name, r.Metrics.TimeSteps, ref.TimeSteps)
	}
	return nil
}

func equalInt32(what string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// verifier checks responses during a timed pass. Every job's first
// answer is decoded and compared with its reference before timing
// starts; later answers that are byte-identical to it (same length and
// CRC-32C) are accepted without decoding, so checking a multi-MB label
// array costs the generator a checksum, not a JSON parse. An answer
// that differs is decoded and checked in full.
type verifier struct {
	refs []*reference
	sums []uint32
	lens []int
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newVerifier(jobs []job) (*verifier, error) {
	v := &verifier{refs: make([]*reference, len(jobs)), sums: make([]uint32, len(jobs)), lens: make([]int, len(jobs))}
	for i := range jobs {
		ref, err := newReference(&jobs[i])
		if err != nil {
			return nil, err
		}
		v.refs[i] = ref
		v.lens[i] = -1
	}
	return v, nil
}

// accept records body as job i's verified answer after a full check.
func (v *verifier) accept(jobs []job, i int, body []byte) error {
	if err := v.refs[i].check(&jobs[i], body); err != nil {
		return err
	}
	v.sums[i], v.lens[i] = crc32.Checksum(body, castagnoli), len(body)
	return nil
}

// verify checks a timed-pass answer to job i. It is safe for
// concurrent use once every job has been accepted.
func (v *verifier) verify(jobs []job, i int, body []byte) error {
	if len(body) == v.lens[i] && crc32.Checksum(body, castagnoli) == v.sums[i] {
		return nil
	}
	return v.refs[i].check(&jobs[i], body)
}
