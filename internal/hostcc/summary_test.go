package hostcc

import (
	"fmt"
	"testing"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
)

// truthStats derives every Stats field from sources independent of the
// run pass: runs and adjacent-column run pairs by a per-pixel scan and
// an all-pairs interval test, the component summary from BFS labels.
// Finds and Unions follow from the definitions documented on Stats.
func truthStats(img *bitmap.Bitmap, conn bitmap.Connectivity) Stats {
	w, h := img.W(), img.H()
	cols := make([][][2]int, w)
	var runs int64
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if !img.Get(x, y) {
				continue
			}
			if y == 0 || !img.Get(x, y-1) {
				cols[x] = append(cols[x], [2]int{y, y})
				runs++
			}
			cols[x][len(cols[x])-1][1] = y
		}
	}
	widen := 0
	if conn == bitmap.Conn8 {
		widen = 1
	}
	var pairs int64
	for x := 0; x+1 < w; x++ {
		for _, a := range cols[x] {
			for _, b := range cols[x+1] {
				if b[0] > a[1]+widen {
					break // runs ascend: no later b reaches a
				}
				if a[0] <= b[1]+widen {
					pairs++
				}
			}
		}
	}
	sum := seqcc.Summarize(seqcc.BFSConn(img, conn))
	return Stats{
		Runs:       runs,
		Finds:      runs + 2*pairs,
		Unions:     runs - int64(sum.Components),
		Components: sum.Components,
		Foreground: sum.Foreground,
		Largest:    sum.Largest,
	}
}

// checkSummary asserts that Summary, the band driver at 1–4 bands and
// Label all report exactly the independently derived Stats.
func checkSummary(t *testing.T, name string, lb *Labeler, img *bitmap.Bitmap, conn bitmap.Connectivity) {
	t.Helper()
	want := truthStats(img, conn)
	if got := lb.Summary(img, conn); got != want {
		t.Fatalf("%s conn%d: Summary %+v, want %+v", name, conn, got, want)
	}
	for nb := 1; nb <= 4; nb++ {
		if got := lb.summaryBands(img, conn, nb); got != want {
			t.Fatalf("%s conn%d: %d bands %+v, want %+v", name, conn, nb, got, want)
		}
	}
	if _, got := lb.Label(img, conn); got != want {
		t.Fatalf("%s conn%d: Label %+v, want %+v", name, conn, got, want)
	}
}

// TestStatsCountDefinitions pins all six Stats fields to the
// definitions on Stats, across the families and both connectivities,
// at widths below, at and straddling the band threshold (two minimum
// bands), widths off the 64-column grid, and empty images.
func TestStatsCountDefinitions(t *testing.T) {
	lb := NewLabeler()
	for _, fam := range bitmap.Families() {
		for _, n := range []int{0, 1, 65, 2*minBandCols + 1} {
			img := fam.Generate(n)
			for _, conn := range conns {
				checkSummary(t, fmt.Sprintf("%s n=%d", fam.Name, n), lb, img, conn)
			}
		}
	}
	seed := uint64(0x5EA)
	for _, w := range []int{0, 63, 64, 129, minBandCols, 2*minBandCols - 64, 2*minBandCols - 1, 2 * minBandCols, 2*minBandCols + 1, 2*minBandCols + 65, 4*minBandCols + 3} {
		for _, h := range []int{0, 1, 37, 130} {
			for _, density := range []float64{0.1, 0.5, 0.9} {
				img := bitmap.RandomRect(w, h, density, seed)
				seed++
				for _, conn := range conns {
					checkSummary(t, fmt.Sprintf("%dx%d d=%.1f", w, h, density), lb, img, conn)
				}
			}
		}
	}
}

// FuzzSummaryBands is the band driver's differential fuzz: for any
// image and band count, the banded Stats equal the sequential pass's
// and the independent ground truth.
func FuzzSummaryBands(f *testing.F) {
	f.Add(uint16(200), uint16(40), uint8(128), false, uint8(1), uint64(1))
	f.Add(uint16(319), uint16(95), uint8(200), true, uint8(3), uint64(2))
	f.Fuzz(func(t *testing.T, w, h uint16, density uint8, conn8 bool, bands uint8, seed uint64) {
		img := bitmap.RandomRect(int(w%400), int(h%100), float64(density)/255, seed)
		conn := bitmap.Conn4
		if conn8 {
			conn = bitmap.Conn8
		}
		nb := 1 + int(bands%4)
		lb := NewLabeler()
		got := lb.summaryBands(img, conn, nb)
		if seq := lb.summaryBands(img, conn, 1); got != seq {
			t.Fatalf("%dx%d conn%d: %d bands %+v, sequential %+v", img.W(), img.H(), conn, nb, got, seq)
		}
		if want := truthStats(img, conn); got != want {
			t.Fatalf("%dx%d conn%d: %d bands %+v, truth %+v", img.W(), img.H(), conn, nb, got, want)
		}
	})
}

// TestSummaryAllocs pins Summary's allocation budget on a warm
// labeler: nothing on the sequential path, and on the band path one
// allocation per band goroutine started (the go statement's argument
// frame) — nothing per run or per pixel.
func TestSummaryAllocs(t *testing.T) {
	img := bitmap.RandomRect(4*minBandCols, 256, 0.5, 11)
	lb := NewLabeler()
	for nb := 1; nb <= 4; nb++ {
		if nb > 1 && raceEnabled {
			t.Skip("band path: the race detector's sync.Pool drops labelers, so each call may build new ones")
		}
		lb.summaryBands(img, bitmap.Conn8, nb) // warm this band count's arenas
		allocs := testing.AllocsPerRun(20, func() { lb.summaryBands(img, bitmap.Conn8, nb) })
		if want := float64(nb - 1); allocs != want {
			t.Errorf("%d bands: %.2f allocs per Summary, want %.0f", nb, allocs, want)
		}
	}
}

// sinkStats keeps benchmarked results live.
var sinkStats Stats

// BenchmarkSummaryHost times Summary on the host-summary families at
// 1024²: serial is one request's latency on a warm labeler (bands
// engage when GOMAXPROCS > 1); parallel keeps GOMAXPROCS requests in
// flight, so banding must not cost throughput under load.
func BenchmarkSummaryHost(b *testing.B) {
	const n = 1024
	for _, fam := range bitmap.Families() {
		switch fam.Name {
		case "random50", "random30", "checker", "hserpentine", "maze", "blobs":
		default:
			continue
		}
		img := fam.Generate(n)
		for _, conn := range conns {
			name := fmt.Sprintf("%s/conn%d", fam.Name, conn)
			b.Run(name+"/serial", func(b *testing.B) {
				lb := NewLabeler()
				lb.Summary(img, conn)
				b.SetBytes(n * n) // one byte per pixel: MB/s reads as Mpix/s
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkStats = lb.Summary(img, conn)
				}
			})
			b.Run(name+"/parallel", func(b *testing.B) {
				b.SetBytes(n * n)
				b.RunParallel(func(pb *testing.PB) {
					lb := NewLabeler()
					for pb.Next() {
						lb.Summary(img, conn) // writes lb's arenas, so it cannot be elided
					}
				})
			})
		}
	}
}
