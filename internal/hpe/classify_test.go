package hpe

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hpe/internal/addrspace"
)

func TestClassifyTableIII(t *testing.T) {
	cases := []struct {
		name   string
		ratio1 float64
		ratio2 float64
		want   Category
	}{
		{"small regular counters", 0.1, 0.5, CategoryRegular},
		{"ratio1 at threshold", 0.3, 1.9, CategoryRegular},
		{"large regular counters", 0.2, 2.0, CategoryIrregular1},
		{"ratio2 well above", 0.0, 10, CategoryIrregular1},
		{"irregular counters", 0.31, 0, CategoryIrregular2},
		{"irregular dominates ratio2", 5, 100, CategoryIrregular2},
		{"infinite ratio1", math.Inf(1), 0, CategoryIrregular2},
		{"infinite ratio2", 0.1, math.Inf(1), CategoryIrregular1},
	}
	for _, c := range cases {
		got := Classify(RatioStats{Ratio1: c.ratio1, Ratio2: c.ratio2})
		if got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestComputeRatiosCensus(t *testing.T) {
	c := testChain()
	// Counters: 16 (small reg), 32 (small reg), 48 (large reg), 64 (large
	// reg), 5 (irregular), 20 (irregular: not divisible by 16).
	for i, cnt := range []int{16, 32, 48, 64, 5, 20} {
		touchSet(c, addrspace.SetID(i), cnt, 0)
	}
	s := computeRatios(c, 16)
	if s.Regular != 4 || s.Irregular != 2 {
		t.Fatalf("regular=%d irregular=%d", s.Regular, s.Irregular)
	}
	if s.SmallRegular != 2 || s.LargeRegular != 2 {
		t.Fatalf("small=%d large=%d", s.SmallRegular, s.LargeRegular)
	}
	if s.Ratio1 != 0.5 || s.Ratio2 != 1.0 {
		t.Fatalf("ratio1=%f ratio2=%f", s.Ratio1, s.Ratio2)
	}
}

func TestComputeRatiosEmptyChain(t *testing.T) {
	s := computeRatios(testChain(), 16)
	if s.Ratio1 != 0 || s.Ratio2 != 0 {
		t.Fatalf("empty chain ratios = %f, %f", s.Ratio1, s.Ratio2)
	}
	if Classify(s) != CategoryRegular {
		t.Fatal("empty chain should classify regular (degenerate)")
	}
}

func TestComputeRatiosAllIrregular(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 7, 0)
	s := computeRatios(c, 16)
	if !math.IsInf(s.Ratio1, 1) {
		t.Fatalf("ratio1 = %f, want +Inf", s.Ratio1)
	}
	if Classify(s) != CategoryIrregular2 {
		t.Fatal("all-irregular should classify irregular#2")
	}
}

func TestInitialStrategy(t *testing.T) {
	if initialStrategy(CategoryRegular) != StrategyMRUC {
		t.Fatal("regular should start with MRU-C")
	}
	if initialStrategy(CategoryIrregular1) != StrategyLRU ||
		initialStrategy(CategoryIrregular2) != StrategyLRU {
		t.Fatal("irregular categories should start with LRU")
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{
		StrategyLRU.String(), StrategyMRUC.String(),
		CategoryRegular.String(), CategoryIrregular1.String(),
		CategoryIrregular2.String(), CategoryUnknown.String(),
		PartitionOld.String(), PartitionMiddle.String(), PartitionNew.String(),
	} {
		if s == "" {
			t.Fatal("empty stringer output")
		}
	}
	if StrategyMRUC.String() != "MRU-C" || CategoryIrregular1.String() != "irregular#1" {
		t.Fatal("paper names not used")
	}
}

// TestRatioStatsWireRoundTrip pins the wire-safe ratio encoding: +Inf —
// which encoding/json rejects as a plain float — must survive a marshal /
// unmarshal cycle exactly, and finite ratios must stay plain JSON numbers.
func TestRatioStatsWireRoundTrip(t *testing.T) {
	in := RatioStats{Regular: 3, Irregular: 1, SmallRegular: 0, LargeRegular: 2,
		Ratio1: 1.0 / 3.0, Ratio2: math.Inf(1)}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal with +Inf ratio: %v", err)
	}
	if !strings.Contains(string(raw), `"Ratio2":"+Inf"`) {
		t.Fatalf("non-finite ratio not encoded as sentinel: %s", raw)
	}
	if strings.Contains(string(raw), `"Ratio1":"`) {
		t.Fatalf("finite ratio left the plain-number encoding: %s", raw)
	}
	var out RatioStats
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"Ratio1":"bogus"}`), &out); err == nil {
		t.Fatal("unknown ratio sentinel accepted")
	}
}
