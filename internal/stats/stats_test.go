package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %f", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %f", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean of 0 did not panic")
		}
	}()
	GeoMean([]float64{0})
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %f/%f", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty extrema not 0")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Fatal("Speedup(200,100) != 2")
	}
	if Speedup(1, 0) != 0 {
		t.Fatal("Speedup with zero divisor should be 0")
	}
}

func TestGeoMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1 // positive
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9 && g <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("app", "speedup")
	tb.AddRowf("HSD", 2.81)
	tb.AddRow("HOT", "1.0")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "app") || !strings.Contains(lines[2], "2.810") {
		t.Fatalf("table content wrong:\n%s", out)
	}
	// All data rows align: same prefix width for second column.
	if strings.Index(lines[2], "2.810") != strings.Index(lines[3], "1.0") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}
