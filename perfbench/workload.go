package main

import (
	"fmt"
	"net/url"
	"strings"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/imageio"
)

// kind is what a request asks the service for, and so which layers
// answer it and which parts of the response the oracle checks.
type kind int

const (
	kindSummary   kind = iota // /v1/label, cost=host, summary only
	kindLabels                // /v1/label, cost=host, labels=1
	kindAggregate             // /v1/aggregate, cost=host, op=sum, labels=1
	kindSim                   // /v1/label on the metered simulator
	kindStrips                // /v1/label, cost=host, array < width, via slapfront
)

// job is one distinct request of a workload's corpus. The open loop
// sends every job once per corpus cycle; every response to a job must
// equal the job's verified answer.
type job struct {
	Name   string // family/WxH/connectivity/endpoint, for messages
	Kind   kind
	Img    *bitmap.Bitmap
	Conn   bitmap.Connectivity
	Params api.Params
	Path   string // endpoint path with query
	Body   []byte // the encoded frame
	CType  string
}

// workload is one named traffic mix.
type workload struct {
	Name     string
	Why      string
	Front    bool    // slapfront over two slapd backends
	Nominal  float64 // req/s, fixed, well below the measured capacity
	Families []string
	Sizes    [][2]int // frame widths and heights the corpus draws from
	Format   imageio.Format
	Array    int // strip width for kindStrips
	corpus   func(w *workload, seed uint64) ([]job, error)
}

var hostFamilies = []string{"random50", "random30", "checker", "hserpentine", "maze", "blobs"}

// workloads is the benchmark's inventory. BENCHMARK.json records each
// one's purpose, families, sizes, rates and limit; a test holds the two
// in agreement.
var workloads = []*workload{
	{
		Name:     "host-summary",
		Why:      "hostcc Summary is nearly all server time; /v1/label summary, conn 4+8",
		Nominal:  50,
		Families: hostFamilies,
		Sizes:    [][2]int{{1024, 1024}},
		Format:   imageio.FormatRaw,
		corpus: func(w *workload, seed uint64) ([]job, error) {
			var jobs []job
			for fi, fam := range w.Families {
				for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
					sz := w.Sizes[0]
					img := drawFamily(fam, sz[0], sz[1], mix(seed, uint64(fi), uint64(conn)))
					p := api.Params{Cost: "host"}
					if conn == bitmap.Conn8 {
						p.Connectivity = 8
					}
					j, err := newJob(fam, kindSummary, img, conn, p, api.PathLabel, w.Format)
					if err != nil {
						return nil, err
					}
					jobs = append(jobs, j)
				}
			}
			return jobs, nil
		},
	},
	{
		Name:     "host-labels",
		Why:      "fill, sum fold, PNG decode, big JSON encode; label+aggregate labels=1",
		Nominal:  80,
		Families: hostFamilies,
		Sizes:    [][2]int{{256, 256}},
		Format:   imageio.FormatPNG,
		corpus: func(w *workload, seed uint64) ([]job, error) {
			var jobs []job
			for fi, fam := range w.Families {
				sz := w.Sizes[0]
				img := drawFamily(fam, sz[0], sz[1], mix(seed, uint64(fi)))
				lj, err := newJob(fam, kindLabels, img, bitmap.Conn4,
					api.Params{Cost: "host", WantLabels: true}, api.PathLabel, w.Format)
				if err != nil {
					return nil, err
				}
				aj, err := newJob(fam, kindAggregate, img, bitmap.Conn4,
					api.Params{Cost: "host", WantLabels: true, Op: "sum"}, api.PathAggregate, w.Format)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, lj, aj)
			}
			return jobs, nil
		},
	},
	{
		Name:     "sim-paper",
		Why:      "metered simulator does the work, hostcc idle",
		Nominal:  140,
		Families: []string{"random50", "fig3a", "fig3b", "hserpentine", "vserpentine", "binarymerge", "evenrowruns"},
		Sizes:    [][2]int{{64, 64}, {128, 128}, {192, 192}, {256, 256}},
		Format:   imageio.FormatRaw,
		corpus: func(w *workload, seed uint64) ([]job, error) {
			var jobs []job
			for fi, fam := range w.Families {
				// Every family at every size: the seed draws only the
				// pixels, so the size mix, and with it the slowest
				// frames, is the same for every seed.
				for si, sz := range w.Sizes {
					img := drawFamily(fam, sz[0], sz[1], mix(seed, uint64(fi), uint64(si)))
					j, err := newJob(fam, kindSim, img, bitmap.Conn4, api.Params{}, api.PathLabel, w.Format)
					if err != nil {
						return nil, err
					}
					jobs = append(jobs, j)
				}
			}
			return jobs, nil
		},
	},
	{
		Name:     "cluster-strips",
		Why:      "slapfront fan-out, hedging, strip wire, ComposeStrips stitch; array=64",
		Front:    true,
		Nominal:  36,
		Families: hostFamilies,
		Sizes:    [][2]int{{256, 128}},
		Format:   imageio.FormatRaw,
		Array:    64,
		corpus: func(w *workload, seed uint64) ([]job, error) {
			var jobs []job
			sz := w.Sizes[0]
			for fi, fam := range w.Families {
				img := drawFamily(fam, sz[0], sz[1], mix(seed, uint64(fi)))
				j, err := newJob(fam, kindStrips, img, bitmap.Conn4,
					api.Params{Cost: "host", ArrayWidth: w.Array}, api.PathLabel, w.Format)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
			return jobs, nil
		},
	},
}

// describe is the workload's one-line record in BENCHMARK.json: why
// it exists, what it sends, and its fixed nominal rate.
func (w *workload) describe() string {
	var sizes []string
	for _, sz := range w.Sizes {
		if sz[0] == sz[1] {
			sizes = append(sizes, fmt.Sprintf("%d²", sz[0]))
		} else {
			sizes = append(sizes, fmt.Sprintf("%dx%d", sz[0], sz[1]))
		}
	}
	format := "SLR1"
	if w.Format == imageio.FormatPNG {
		format = "PNG"
	}
	return fmt.Sprintf("%s. %s %s %s; nominal %g/s",
		w.Why, strings.Join(w.Families, ","), strings.Join(sizes, "/"), format, w.Nominal)
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

func newJob(fam string, k kind, img *bitmap.Bitmap, conn bitmap.Connectivity, p api.Params, path string, format imageio.Format) (job, error) {
	body, err := imageio.EncodeBytes(img, format)
	if err != nil {
		return job{}, fmt.Errorf("encode %s: %w", fam, err)
	}
	q := p.Query()
	u := url.URL{Path: path, RawQuery: q.Encode()}
	return job{
		Name:   fmt.Sprintf("%s/%dx%d/c%d%s", fam, img.W(), img.H(), conn, u.String()),
		Kind:   k,
		Img:    img,
		Conn:   conn,
		Params: p,
		Path:   u.String(),
		Body:   body,
		CType:  format.ContentType(),
	}, nil
}

// mix derives a per-frame seed from the run seed (splitmix64 over the
// inputs), so each frame changes with the seed independently.
func mix(seed uint64, xs ...uint64) uint64 {
	z := seed
	for _, x := range xs {
		z += 0x9E3779B97F4A7C15 ^ x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}

// drawFamily returns a w×h member of a named family for seed. Random
// families draw their pixels from the seed; structured families are
// tiled from h×h squares (seeded ones with a seed per tile) and
// mirrored as the seed says, which moves every label while keeping the
// runs per pixel, the property the host engine's cost tracks.
func drawFamily(name string, w, h int, seed uint64) *bitmap.Bitmap {
	switch name {
	case "random50":
		return bitmap.RandomRect(w, h, 0.50, seed)
	case "random30":
		return bitmap.RandomRect(w, h, 0.30, seed)
	}
	fam, ok := bitmap.FamilyByName(name)
	if !ok {
		panic("perfbench: unknown family " + name)
	}
	img := bitmap.New(w, h)
	for k := 0; k*h < w; k++ {
		var tile *bitmap.Bitmap
		switch name {
		case "maze":
			tile = bitmap.Maze(h, mix(seed, uint64(k)))
		case "blobs":
			tile = bitmap.Blobs(h, max(1, h/8), 4*h, mix(seed, uint64(k)))
		case "evenrowruns":
			tile = bitmap.RandomEvenRowRuns(h, mix(seed, uint64(k)))
		default:
			tile = fam.Generate(h)
		}
		img.Overlay(tile, k*h, 0)
	}
	if seed&1 != 0 {
		img = img.MirrorH()
	}
	if seed&2 != 0 {
		img = img.MirrorV()
	}
	return img
}
