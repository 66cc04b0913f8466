package core

import (
	"testing"
	"testing/quick"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
	"slapcc/internal/unionfind"
)

func conn8(t *testing.T, img *bitmap.Bitmap, opt Options) *Result {
	t.Helper()
	opt.Connectivity = bitmap.Conn8
	res, err := Label(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConn8CheckerIsOneComponent(t *testing.T) {
	// The checkerboard is the canonical connectivity witness: n²/2
	// isolated pixels under Conn4, one single diagonally-woven component
	// under Conn8.
	img := bitmap.Checker(9)
	four := mustLabel(t, img, Options{})
	eight := conn8(t, img, Options{})
	if four.Labels.ComponentCount() != 41 {
		t.Fatalf("4-connected checker: want 41 components, got %d", four.Labels.ComponentCount())
	}
	if eight.Labels.ComponentCount() != 1 {
		t.Fatalf("8-connected checker: want 1 component, got %d\n%s",
			eight.Labels.ComponentCount(), eight.Labels)
	}
}

func TestConn8DiagonalLine(t *testing.T) {
	// A bare diagonal: disconnected dots under Conn4, one line under Conn8.
	img := bitmap.New(6, 6)
	for i := 0; i < 6; i++ {
		img.Set(i, i, true)
	}
	if got := mustLabel(t, img, Options{}).Labels.ComponentCount(); got != 6 {
		t.Fatalf("4-connected diagonal: want 6, got %d", got)
	}
	if got := conn8(t, img, Options{}).Labels.ComponentCount(); got != 1 {
		t.Fatalf("8-connected diagonal: want 1, got %d", got)
	}
}

func TestConn8BridgePixel(t *testing.T) {
	// One pixel whose three next-column neighbors are pairwise
	// unconnected except through it: the case that forces the
	// pixel-level bridge records.
	img := bitmap.MustParse(`
.#
##
.#
`)
	res := conn8(t, img, Options{})
	if err := seqcc.CheckConn(img, res.Labels, bitmap.Conn8); err != nil {
		t.Fatalf("bridge case: %v\n%s", err, res.Labels)
	}
	if res.Labels.ComponentCount() != 1 {
		t.Fatalf("want 1 component, got %d", res.Labels.ComponentCount())
	}
}

func TestConn8AllFamilies(t *testing.T) {
	for _, fam := range bitmap.Families() {
		img := fam.Generate(19)
		res := conn8(t, img, Options{})
		if err := seqcc.CheckConn(img, res.Labels, bitmap.Conn8); err != nil {
			t.Errorf("%s: %v", fam.Name, err)
		}
	}
}

func TestConn8WithAllOptions(t *testing.T) {
	img := bitmap.Random(21, 0.45, 31)
	want := seqcc.BFSConn(img, bitmap.Conn8)
	for _, kind := range unionfind.Kinds() {
		for _, spec := range []bool{false, true} {
			res := conn8(t, img, Options{UF: kind, Speculate: spec, IdleCompression: true})
			if !res.Labels.Equal(want) {
				t.Errorf("uf=%s spec=%v: wrong 8-connected labeling", kind, spec)
			}
		}
	}
}

// TestConn8ExhaustiveTiny sweeps every binary image at small shapes — the
// diagonal adjacency cases are exactly where hand reasoning goes wrong.
func TestConn8ExhaustiveTiny(t *testing.T) {
	shapes := [][2]int{{1, 4}, {4, 1}, {2, 3}, {3, 3}}
	if !testing.Short() {
		shapes = append(shapes, [2]int{4, 4}, [2]int{2, 5})
	}
	for _, wh := range shapes {
		w, h := wh[0], wh[1]
		cells := w * h
		for mask := 0; mask < 1<<uint(cells); mask++ {
			img := bitmap.New(w, h)
			for i := 0; i < cells; i++ {
				if mask&(1<<uint(i)) != 0 {
					img.Set(i%w, i/w, true)
				}
			}
			res, err := Label(img, Options{Connectivity: bitmap.Conn8, SkipInput: true})
			if err != nil {
				t.Fatalf("%dx%d mask %b: %v", w, h, mask, err)
			}
			if err := seqcc.CheckConn(img, res.Labels, bitmap.Conn8); err != nil {
				t.Fatalf("%dx%d mask %b: %v\n%s", w, h, mask, err, img)
			}
		}
	}
}

func TestConn8Aggregate(t *testing.T) {
	img := bitmap.Checker(11) // one big component under Conn8
	opt := Options{Connectivity: bitmap.Conn8}
	res, err := Aggregate(img, Ones(img), Sum(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := int32(img.CountOnes())
	for x := 0; x < 11; x++ {
		for y := 0; y < 11; y++ {
			if !img.Get(x, y) {
				continue
			}
			if got := res.PerPixel[x*11+y]; got != want {
				t.Fatalf("pixel (%d,%d): area %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestInvalidConnectivityRejected(t *testing.T) {
	if _, err := Label(bitmap.Empty(4), Options{Connectivity: 5}); err == nil {
		t.Fatal("want error for invalid connectivity")
	}
}

// Property: 8-connected labeling equals the 8-connected ground truth on
// random images; 8-connected component counts never exceed 4-connected.
func TestConn8Quick(t *testing.T) {
	f := func(seed uint32, np, dp uint8) bool {
		n := int(np%22) + 1
		img := bitmap.Random(n, float64(dp%11)/10, uint64(seed))
		res, err := Label(img, Options{Connectivity: bitmap.Conn8})
		if err != nil {
			return false
		}
		if seqcc.CheckConn(img, res.Labels, bitmap.Conn8) != nil {
			return false
		}
		four, err := Label(img, Options{})
		if err != nil {
			return false
		}
		return res.Labels.ComponentCount() <= four.Labels.ComponentCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
