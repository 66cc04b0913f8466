package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
	"slapcc/internal/slap"
)

// capture redirects os.Stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

func TestRunGenerateAndShow(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-gen", "checker", "-n", "8", "-show", "-metrics", "-profile"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"components: 32", "phases:", "left:unionfind", "per-PE completion"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "checker") || !strings.Contains(out, "evenrowruns") {
		t.Fatalf("family list incomplete:\n%s", out)
	}
}

func TestRunPBMInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img.pbm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bitmap.Checker(6).WritePBM(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := capture(t, func() error { return run([]string{"-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "components: 18") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunAggregate(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-gen", "frames", "-n", "12", "-agg", "sum", "-show"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "aggregate (sum") {
		t.Fatalf("missing aggregate output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // no input chosen
		{"-gen", "nope"},                      // unknown family
		{"-gen", "checker", "-n", "0"},        // bad size
		{"-gen", "checker", "-in", "x.pbm"},   // both inputs
		{"-in", "/nonexistent/file.pbm"},      // missing file
		{"-gen", "checker", "-uf", "bogus"},   // unknown UF kind
		{"-gen", "checker", "-agg", "median"}, // unknown monoid
		{"-gen", "checker", "-parallel"},      // unknown flag
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestRunConn8(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-gen", "checker", "-n", "8", "-conn", "8", "-speculate"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "components: 1 ") {
		t.Fatalf("8-connected checker should be one component:\n%s", out)
	}
	if _, err := capture(t, func() error {
		return run([]string{"-gen", "checker", "-n", "8", "-conn", "5"})
	}); err == nil {
		t.Fatal("want error for invalid connectivity")
	}
}

func TestRunBitSerialAndVariants(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-gen", "evenrowruns", "-n", "16", "-bitserial", "-uf", "blum", "-idle", "-unitcost"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "uf=blum") {
		t.Fatalf("expected blum UF in output:\n%s", out)
	}
}

// TestRunArrayStripMined: -array strip-mines wide images; the built-in
// -verify cross-check against the sequential reference runs on the
// stitched global labeling, and the seam-merge phase shows in -metrics.
func TestRunArrayStripMined(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "64", "-array", "16", "-metrics"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"array: 16 PEs, 4 strips", "seam-merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Strip workers are a host-side knob only; the run must agree.
	out2, err := capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "64", "-array", "16", "-stripworkers", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	line := func(s string) string {
		for _, ln := range strings.Split(s, "\n") {
			if strings.HasPrefix(ln, "simulated time:") {
				return ln
			}
		}
		return ""
	}
	if line(out) == "" || line(out) != line(out2) {
		t.Errorf("strip workers changed the simulated time:\n%q\nvs\n%q", line(out), line(out2))
	}
}

// TestRunBitSerialNonSquare: -bitserial sizes words from the pixel count
// (WordBitsForDims), not from max(w, h)²: a 32×4 image is charged 8-bit
// words (⌈lg 2·32·4⌉), where the old maxDim sizing billed 11-bit words.
func TestRunBitSerialNonSquare(t *testing.T) {
	img := bitmap.RandomRect(32, 4, 0.5, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "rect.pbm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.WritePBM(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	want, err := core.Label(img, core.Options{Cost: slap.BitSerial(slap.WordBitsForDims(32, 4))})
	if err != nil {
		t.Fatal(err)
	}
	overCharged, err := core.Label(img, core.Options{Cost: slap.BitSerial(slap.WordBitsFor(32))})
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics.Time == overCharged.Metrics.Time {
		t.Fatal("test image cannot discriminate word widths (no link traffic?)")
	}

	out, err := capture(t, func() error {
		return run([]string{"-in", path, "-bitserial"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("simulated time: %d steps", want.Metrics.Time); !strings.Contains(out, want) {
		t.Errorf("output missing %q (dims-based word sizing):\n%s", want, out)
	}
	if bad := fmt.Sprintf("simulated time: %d steps", overCharged.Metrics.Time); strings.Contains(out, bad) {
		t.Errorf("CLI still charges maxDim-based words:\n%s", out)
	}
}

// TestRunFormatInputs: -in reads every imageio codec, pinned (-format)
// and sniffed (auto); the labeling agrees across formats.
func TestRunFormatInputs(t *testing.T) {
	img := bitmap.Checker(6) // 18 components
	dir := t.TempDir()
	for _, f := range imageio.Formats() {
		data, err := imageio.EncodeBytes(img, f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "img."+string(f))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"-in", path, "-format", string(f)},
			{"-in", path}, // auto-sniff
		} {
			out, err := capture(t, func() error { return run(args) })
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if !strings.Contains(out, "components: 18") {
				t.Errorf("%v: wrong labeling:\n%s", args, out)
			}
		}
	}
	if _, err := capture(t, func() error {
		return run([]string{"-in", filepath.Join(dir, "img.png"), "-format", "jpeg"})
	}); err == nil || !strings.Contains(err.Error(), "jpeg") {
		t.Fatalf("bad -format: %v", err)
	}
}

// TestRunAggregateStripMined: -agg now strip-mines with -array (the
// refusal of PR 3/4 is gone); the per-pixel fold the strip-mined CLI
// run prints must match the whole-image run's.
func TestRunAggregateStripMined(t *testing.T) {
	whole, err := capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "32", "-agg", "sum", "-show"})
	})
	if err != nil {
		t.Fatal(err)
	}
	strip, err := capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "32", "-array", "8", "-agg", "sum", "-show"})
	})
	if err != nil {
		t.Fatalf("strip-mined -agg errored: %v", err)
	}
	marker := "per-pixel aggregate:"
	wi, si := strings.Index(whole, marker), strings.Index(strip, marker)
	if wi < 0 || si < 0 {
		t.Fatalf("missing aggregate output:\n%s", strip)
	}
	if whole[wi:] != strip[si:] {
		t.Errorf("strip-mined per-pixel aggregate differs from whole-image run:\n%s\nvs\n%s", strip[si:], whole[wi:])
	}
	if !strings.Contains(strip, "array: 8 PEs") {
		t.Fatalf("strip-mined run summary missing:\n%s", strip)
	}
}

// TestRunSeamScheduleFlags: -seam/-schedule select the models, show in
// the run summary, and reject unknown values.
func TestRunSeamScheduleFlags(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "32", "-array", "8", "-seam", "host", "-schedule", "pipelined", "-metrics"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipelined schedule", "host seam relabel", "seam-merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "seam-broadcast") {
		t.Errorf("host seam model still emitted seam-broadcast:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "32", "-array", "8", "-metrics"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distributed seam relabel", "seam-broadcast", "seam-rewrite"} {
		if !strings.Contains(out, want) {
			t.Errorf("default output missing %q:\n%s", want, out)
		}
	}
	if _, err := capture(t, func() error {
		return run([]string{"-gen", "random50", "-n", "32", "-array", "8", "-seam", "psychic"})
	}); err == nil || !strings.Contains(err.Error(), "seam") {
		t.Fatalf("unknown -seam accepted: %v", err)
	}
}
