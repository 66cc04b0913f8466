package core

import (
	"testing"
	"testing/quick"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
	"slapcc/internal/slap"
	"slapcc/internal/unionfind"
)

func mustLabel(t *testing.T, img *bitmap.Bitmap, opt Options) *Result {
	t.Helper()
	res, err := Label(img, opt)
	if err != nil {
		t.Fatalf("Label: %v", err)
	}
	return res
}

// metricsIdentical compares everything the experiments report.
func metricsIdentical(t *testing.T, a, b *Result) bool {
	t.Helper()
	if a.Metrics.Time != b.Metrics.Time ||
		a.Metrics.Sends != b.Metrics.Sends ||
		a.Metrics.Words != b.Metrics.Words ||
		a.Metrics.MaxQueue != b.Metrics.MaxQueue ||
		a.Metrics.PEMemory != b.Metrics.PEMemory {
		return false
	}
	if len(a.Metrics.Phases) != len(b.Metrics.Phases) {
		return false
	}
	for i := range a.Metrics.Phases {
		pa, pb := a.Metrics.Phases[i], b.Metrics.Phases[i]
		if pa.Name != pb.Name || pa.Makespan != pb.Makespan || pa.Busy != pb.Busy ||
			pa.Idle != pb.Idle || pa.Sends != pb.Sends || pa.Words != pb.Words ||
			pa.NilRecvs != pb.NilRecvs || pa.MaxQueue != pb.MaxQueue {
			return false
		}
	}
	return a.UF == b.UF && a.Speculation == b.Speculation
}

func TestLabelMatchesGroundTruthSmall(t *testing.T) {
	img := bitmap.MustParse(`
#.##
#..#
.##.
`)
	res := mustLabel(t, img, Options{})
	if err := seqcc.Check(img, res.Labels); err != nil {
		t.Fatalf("labeling wrong: %v\ngot:\n%s", err, res.Labels)
	}
}

func TestLabelTwoProngMerge(t *testing.T) {
	// The configuration that breaks Figure 6's literal overwrite
	// semantics: two separate prefix components merge only through a
	// later column, so one set hears two labels.
	img := bitmap.MustParse(`
#.#
#.#
###
`)
	res := mustLabel(t, img, Options{})
	if err := seqcc.Check(img, res.Labels); err != nil {
		t.Fatalf("two-prong labeling wrong: %v\ngot:\n%s", err, res.Labels)
	}
}

func TestLabelDegenerateImages(t *testing.T) {
	cases := map[string]*bitmap.Bitmap{
		"empty0":      bitmap.New(0, 0),
		"empty":       bitmap.Empty(4),
		"full1":       bitmap.Full(1),
		"single":      bitmap.SinglePixel(5, 2, 3),
		"full":        bitmap.Full(7),
		"onecol":      bitmap.New(1, 6),
		"onerow":      bitmap.New(6, 1),
		"rect":        bitmap.Random(9, 0.5, 3).SubImage(0, 0, 9, 4),
		"lastcolumn":  bitmap.MustParse("..#\n..#"),
		"firstcolumn": bitmap.MustParse("#..\n#.."),
	}
	cases["onecol"].Set(0, 2, true)
	cases["onecol"].Set(0, 3, true)
	cases["onerow"].Set(2, 0, true)
	cases["onerow"].Set(3, 0, true)
	for name, img := range cases {
		res := mustLabel(t, img, Options{})
		if err := seqcc.Check(img, res.Labels); err != nil {
			t.Errorf("%s: %v\nimage:\n%sgot:\n%s", name, err, img, res.Labels)
		}
	}
}

func TestLabelAllFamiliesAllKinds(t *testing.T) {
	for _, fam := range bitmap.Families() {
		img := fam.Generate(17)
		want := seqcc.BFS(img)
		for _, kind := range unionfind.Kinds() {
			res := mustLabel(t, img, Options{UF: kind})
			if !res.Labels.Equal(want) {
				t.Errorf("family %s / uf %s: wrong labeling", fam.Name, kind)
			}
		}
	}
}

func TestLabelUnknownUFKind(t *testing.T) {
	if _, err := Label(bitmap.Empty(4), Options{UF: "bogus"}); err == nil {
		t.Fatal("want error for unknown UF kind")
	}
}

func TestLabelMetricsShape(t *testing.T) {
	img := bitmap.Random(32, 0.5, 5)
	res := mustLabel(t, img, Options{})
	m := res.Metrics
	if m.Time <= 0 {
		t.Fatal("total time must be positive")
	}
	wantPhases := []string{
		"input",
		"left:unionfind", "left:findall", "left:labelpass", "left:assign",
		"right:unionfind", "right:findall", "right:labelpass", "right:assign",
		"merge",
	}
	if len(m.Phases) != len(wantPhases) {
		t.Fatalf("want %d phases, got %d: %+v", len(wantPhases), len(m.Phases), m.Phases)
	}
	var sum int64
	for i, p := range m.Phases {
		if p.Name != wantPhases[i] {
			t.Errorf("phase %d: want %q, got %q", i, wantPhases[i], p.Name)
		}
		if p.Makespan < 0 {
			t.Errorf("phase %q has negative makespan", p.Name)
		}
		sum += p.Makespan
	}
	if sum != m.Time {
		t.Fatalf("phase makespans sum to %d, total says %d", sum, m.Time)
	}
	if in, ok := m.Phase("input"); !ok || in.Makespan != 32 {
		t.Fatalf("input phase should cost h=32 steps, got %+v", in)
	}
	if m.PEMemory <= 0 || m.PEMemory > 64*32 {
		t.Fatalf("per-PE memory should be Θ(h), got %d", m.PEMemory)
	}
	if res.UF.Finds == 0 || res.UF.MaxOpCost == 0 {
		t.Fatalf("UF report empty: %+v", res.UF)
	}
}

func TestSkipInput(t *testing.T) {
	img := bitmap.Random(16, 0.5, 9)
	with := mustLabel(t, img, Options{})
	without := mustLabel(t, img, Options{SkipInput: true})
	if _, ok := without.Metrics.Phase("input"); ok {
		t.Fatal("SkipInput should drop the input phase")
	}
	if with.Metrics.Time-without.Metrics.Time != 16 {
		t.Fatalf("input phase should account for exactly h steps, diff=%d",
			with.Metrics.Time-without.Metrics.Time)
	}
	if !with.Labels.Equal(without.Labels) {
		t.Fatal("input accounting must not change the labeling")
	}
}

func TestUnitCostAccountingCheaper(t *testing.T) {
	img := bitmap.BinaryMerge(64)
	real := mustLabel(t, img, Options{})
	unit := mustLabel(t, img, Options{UnitCostUF: true})
	if !real.Labels.Equal(unit.Labels) {
		t.Fatal("accounting mode must not change the labeling")
	}
	if unit.Metrics.Time > real.Metrics.Time {
		t.Fatalf("unit-cost accounting should never be slower: unit=%d real=%d",
			unit.Metrics.Time, real.Metrics.Time)
	}
}

func TestIdleCompressionPreservesLabels(t *testing.T) {
	for _, fam := range []string{"vserpentine", "binarymerge", "random50"} {
		f, _ := bitmap.FamilyByName(fam)
		img := f.Generate(33)
		plain := mustLabel(t, img, Options{})
		idle := mustLabel(t, img, Options{IdleCompression: true})
		if !plain.Labels.Equal(idle.Labels) {
			t.Errorf("%s: idle compression changed the labeling", fam)
		}
		if idle.Metrics.Time > plain.Metrics.Time {
			t.Errorf("%s: idle compression must never slow the machine: %d > %d",
				fam, idle.Metrics.Time, plain.Metrics.Time)
		}
	}
}

func TestBitSerialCostsMore(t *testing.T) {
	img := bitmap.RandomEvenRowRuns(32, 1)
	word := mustLabel(t, img, Options{})
	bits := mustLabel(t, img, Options{Cost: slap.BitSerial(slap.WordBitsFor(32))})
	if !word.Labels.Equal(bits.Labels) {
		t.Fatal("cost model must not change the labeling")
	}
	if bits.Metrics.Time <= word.Metrics.Time {
		t.Fatalf("bit-serial links must cost more: bits=%d word=%d",
			bits.Metrics.Time, word.Metrics.Time)
	}
}

func TestImageTooLargeForLabels(t *testing.T) {
	// 2*w*h must fit in int32; fake it with a wide 1-row image.
	img := bitmap.New(1<<16, 1<<15)
	if _, err := Label(img, Options{}); err == nil {
		t.Fatal("want error for images exceeding the int32 label space")
	}
}

// The central property: Algorithm CC equals the sequential ground truth
// on random images of random sizes for every union–find kind.
func TestLabelQuick(t *testing.T) {
	kinds := unionfind.Kinds()
	f := func(seed uint32, np, dp, kp uint8, idle bool) bool {
		n := int(np%28) + 1
		density := float64(dp%11) / 10
		img := bitmap.Random(n, density, uint64(seed))
		kind := kinds[int(kp)%len(kinds)]
		res, err := Label(img, Options{UF: kind, IdleCompression: idle})
		if err != nil {
			return false
		}
		return seqcc.Check(img, res.Labels) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: rectangular images (w ≠ h) label correctly too.
func TestLabelRectangularQuick(t *testing.T) {
	f := func(seed uint32, wp, hp uint8) bool {
		w := int(wp%20) + 1
		h := int(hp%20) + 1
		img := bitmap.New(w, h)
		rng := bitmap.NewRNG(uint64(seed))
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				if rng.Float64() < 0.45 {
					img.Set(x, y, true)
				}
			}
		}
		res, err := Label(img, Options{})
		if err != nil {
			return false
		}
		return seqcc.Check(img, res.Labels) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperFigures(t *testing.T) {
	// The two images the paper presents as the hard cases (Figure 3).
	for _, n := range []int{12, 16, 24} {
		for _, img := range []*bitmap.Bitmap{bitmap.Fig3a(n), bitmap.Fig3b(n)} {
			res := mustLabel(t, img, Options{})
			if err := seqcc.Check(img, res.Labels); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}
