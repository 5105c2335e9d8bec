package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if !almost(Median(xs), 5) {
		t.Fatalf("median = %v", Median(xs))
	}
	if !almost(Percentile(xs, 100), 9) || !almost(Percentile(xs, 0), 1) {
		t.Fatal("extreme percentiles")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// The input must not be mutated (sorted copy).
	if xs[0] != 9 {
		t.Fatal("input mutated")
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4}
	if Min(xs) != -1 || Max(xs) != 4 {
		t.Fatal("min/max")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max")
	}
}

func TestLinFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept := LinFit(x, y)
	if !almost(slope, 2) || !almost(intercept, 3) {
		t.Fatalf("fit %v %v", slope, intercept)
	}
}

func TestLinFitDegenerate(t *testing.T) {
	slope, intercept := LinFit([]float64{5}, []float64{7})
	if slope != 0 || intercept != 7 {
		t.Fatal("single point")
	}
	slope, intercept = LinFit([]float64{2, 2}, []float64{1, 3})
	if slope != 0 || !almost(intercept, 2) {
		t.Fatal("zero x-variance")
	}
}

func TestLinFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LinFit([]float64{1}, []float64{1, 2})
}

func TestLinFitRecoversRandomLines(t *testing.T) {
	f := func(a, b int8) bool {
		slope := float64(a) / 4
		intercept := float64(b)
		x := []float64{0, 1, 2, 3, 4, 5}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = slope*x[i] + intercept
		}
		s, c := LinFit(x, y)
		return almost(s, slope) && almost(c, intercept)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Columns: []string{"n", "time"}}
	tb.AddRow(4, 1.5)
	tb.AddRow(128, "12")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "n") || !strings.Contains(lines[0], "time") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[2], "1.50") {
		t.Fatalf("float formatting: %q", lines[2])
	}
}
