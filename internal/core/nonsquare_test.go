package core

import (
	"testing"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
)

// Non-square equivalence: tiling makes w ≠ h first-class (the last strip
// of a strip-mined run is almost always narrower than the array), so the
// executors are held to the same conformance bar off the square
// diagonal as on it — the per-phase and fused executions of every shape
// must agree bit for bit with each other and with the sequential ground
// truth.

// nonSquareSizes spans wide, tall, degenerate, and >64-row shapes (the
// packed-column walks change word count at multiples of 64).
var nonSquareSizes = [][2]int{
	{1, 17}, {17, 1}, {5, 3}, {9, 33}, {33, 9}, {64, 16}, {16, 64}, {70, 7}, {7, 70}, {3, 130},
}

func TestNonSquareEngineEquivalence(t *testing.T) {
	for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
		for _, wh := range nonSquareSizes {
			w, h := wh[0], wh[1]
			for _, density := range []float64{0.3, 0.55} {
				img := bitmap.RandomRect(w, h, density, uint64(w*1000+h)+uint64(conn))

				fused := mustLabel(t, img, Options{Connectivity: conn})
				if err := seqcc.CheckConn(img, fused.Labels, conn); err != nil {
					t.Fatalf("%dx%d/conn%d/d%.2f: fused engine wrong: %v", w, h, conn, density, err)
				}
				unfused := mustLabel(t, img, Options{Connectivity: conn, noFuse: true})
				if !unfused.Labels.Equal(fused.Labels) {
					t.Errorf("%dx%d/conn%d/d%.2f: per-phase executor changed the labeling",
						w, h, conn, density)
				}
				if !metricsIdentical(t, fused, unfused) {
					t.Errorf("%dx%d/conn%d/d%.2f: per-phase executor changed the metrics:\nfused %+v\ngot   %+v",
						w, h, conn, density, fused.Metrics, unfused.Metrics)
				}
			}
		}
	}
}

// TestNonSquareStructuredShapes covers deterministic non-square
// structures (full, single row/column spans, serpentine slices) where
// off-by-one bugs in the affine label bases would show immediately.
func TestNonSquareStructuredShapes(t *testing.T) {
	imgs := map[string]*bitmap.Bitmap{
		"full-wide": func() *bitmap.Bitmap { b := bitmap.New(41, 6); b.Fill(true); return b }(),
		"full-tall": func() *bitmap.Bitmap { b := bitmap.New(6, 41); b.Fill(true); return b }(),
		"serp-slice": func() *bitmap.Bitmap {
			s := bitmap.HSerpentine(32)
			return s.SubImage(0, 0, 32, 11)
		}(),
		"row": func() *bitmap.Bitmap {
			b := bitmap.New(50, 1)
			for x := 0; x < 50; x += 2 {
				b.Set(x, 0, true)
			}
			return b
		}(),
		"col": func() *bitmap.Bitmap {
			b := bitmap.New(1, 50)
			for y := 0; y < 50; y++ {
				b.Set(0, y, true)
			}
			return b
		}(),
	}
	for name, img := range imgs {
		for _, conn := range []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8} {
			fused := mustLabel(t, img, Options{Connectivity: conn})
			if err := seqcc.CheckConn(img, fused.Labels, conn); err != nil {
				t.Fatalf("%s/conn%d: %v", name, conn, err)
			}
			unfused := mustLabel(t, img, Options{Connectivity: conn, noFuse: true})
			if !unfused.Labels.Equal(fused.Labels) || !metricsIdentical(t, fused, unfused) {
				t.Errorf("%s/conn%d: per-phase engine diverged", name, conn)
			}
		}
	}
}
