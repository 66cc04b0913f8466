package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"slapcc/internal/bitmap"
)

// atGMP runs f with GOMAXPROCS pinned to p, restoring it after. The
// multicore suites sweep this process-wide knob; no test in this repo
// uses t.Parallel, so nothing else observes the change.
func atGMP(t *testing.T, p int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("gmp%d", p), func(t *testing.T) {
		old := runtime.GOMAXPROCS(p)
		defer runtime.GOMAXPROCS(old)
		f(t)
	})
}

var gmpSweep = []int{1, 2, 4}

// TestMulticoreEngineEquivalence pins the simulator's host-parallelism
// contract at real GOMAXPROCS values: the simulator runs one frame per
// goroutine, so frames labeled concurrently through one shared
// LabelerPool (pooled arenas handed between goroutines) must match a
// direct Label bit for bit — labels and simulated metrics — for every
// bitmap family at 1, 2, or 4 procs.
func TestMulticoreEngineEquivalence(t *testing.T) {
	const n, callers = 31, 3
	fams := bitmap.Families()
	imgs := make([]*bitmap.Bitmap, len(fams))
	want := make([]*Result, len(fams))
	for i, fam := range fams {
		imgs[i] = fam.Generate(n)
		want[i] = mustLabel(t, imgs[i], Options{})
	}
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			pool := NewLabelerPool(Options{}, 2)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k := range imgs {
						i := (k + c) % len(imgs)
						got, err := pool.Label(imgs[i])
						if err != nil {
							t.Errorf("%s: %v", fams[i].Name, err)
							return
						}
						if !got.Labels.Equal(want[i].Labels) {
							t.Errorf("%s: pooled concurrent run changed the labeling", fams[i].Name)
						}
						if !metricsIdentical(t, want[i], got) {
							t.Errorf("%s: pooled concurrent run changed the metrics:\nwant %+v\ngot  %+v",
								fams[i].Name, want[i].Metrics, got.Metrics)
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// TestMulticoreStreamOrdering pins the LabelerPool/LabelStream delivery
// contract under contention: with more workers than procs and more
// procs than one, results still arrive strictly in submission order and
// bit-identical to a direct Label of the same frame.
func TestMulticoreStreamOrdering(t *testing.T) {
	const n, frames = 24, 32
	imgs := make([]*bitmap.Bitmap, frames)
	want := make([]*Result, frames)
	for i := range imgs {
		imgs[i] = bitmap.Random(n, 0.5, uint64(i)+1)
		want[i] = mustLabel(t, imgs[i], Options{})
	}
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			for _, workers := range []int{2, 4} {
				next := 0
				s := NewLabelStream(Options{}, workers, func(r StreamResult) {
					if r.Frame != next {
						t.Errorf("w%d: frame %d delivered at position %d", workers, r.Frame, next)
					}
					next++
					if r.Err != nil {
						t.Errorf("w%d: frame %d: %v", workers, r.Frame, r.Err)
						return
					}
					if !r.Result.Labels.Equal(want[r.Frame].Labels) {
						t.Errorf("w%d: frame %d labels differ from direct Label", workers, r.Frame)
					}
				})
				for _, img := range imgs {
					s.Submit(img)
				}
				s.Close()
				if next != frames {
					t.Errorf("w%d: sink saw %d frames, want %d", workers, next, frames)
				}
			}
		})
	}
}

// TestMulticoreStripWorkersDeterminism pins the strip fan-out contract:
// a strip-mined run's labels AND composed simulated metrics are
// bit-identical whether strips run sequentially or fanned across
// workers, at every GOMAXPROCS — the fan-out is a wall-clock
// optimization, never a semantic knob.
func TestMulticoreStripWorkersDeterminism(t *testing.T) {
	const n, aw = 96, 32
	img := bitmap.Random(n, 0.5, 7)
	base := mustLabel(t, img, Options{ArrayWidth: aw})
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			for _, workers := range []int{2, 4} {
				got := mustLabel(t, img, Options{ArrayWidth: aw, StripWorkers: workers})
				if !got.Labels.Equal(base.Labels) {
					t.Errorf("w%d: strip fan-out changed the labeling", workers)
				}
				if !metricsIdentical(t, base, got) {
					t.Errorf("w%d: strip fan-out changed composed metrics:\nbase %+v\ngot %+v",
						workers, base.Metrics, got.Metrics)
				}
			}
		})
	}
}

// TestMulticoreHostEngineStable: the host engine's canonical labels do
// not depend on GOMAXPROCS either, and neither does its summary-only
// answer on a frame wide enough for hostcc's band-parallel Summary —
// issued from several goroutines sharing one LabelerPool, so the band
// goroutines and the pooled band labelers run under real contention.
func TestMulticoreHostEngineStable(t *testing.T) {
	const n = 64
	img := bitmap.Random(n, 0.5, 9)
	want := mustLabel(t, img, Options{})

	const big, callers = 1024, 4
	wide := bitmap.Random(big, 0.5, 10)
	sumOpt := Options{Engine: EngineHost, SkipLabels: true, Connectivity: bitmap.Conn8}
	// The reference is a labeled host run: Label is always one band.
	labOpt := sumOpt
	labOpt.SkipLabels = false
	ref := mustLabel(t, wide, labOpt)
	for _, p := range gmpSweep {
		atGMP(t, p, func(t *testing.T) {
			host := mustLabel(t, img, Options{Engine: EngineHost})
			if !host.Labels.Equal(want.Labels) {
				t.Error("host engine labels diverged from simulator's canonical labels")
			}
			pool := NewLabelerPool(sumOpt, 2)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						got, err := pool.Label(wide)
						if err != nil {
							t.Errorf("summary-only host run: %v", err)
							return
						}
						if *got.Summary != *ref.Summary || got.UF != ref.UF {
							t.Errorf("summary-only host run: summary %+v UF %+v, want %+v %+v",
								*got.Summary, got.UF, *ref.Summary, ref.UF)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
