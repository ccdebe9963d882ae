package hpe

import (
	"encoding/json"
	"fmt"
	"math"
)

// RatioStats carries the classification statistics of §IV-D, computed over
// the page-set chain when the GPU memory first fills.
type RatioStats struct {
	// Regular / Irregular / SmallRegular / LargeRegular count page sets by
	// counter type (definitions 1–4 of §IV-D).
	Regular      int
	Irregular    int
	SmallRegular int
	LargeRegular int
	// Ratio1 = irregular / regular; Ratio2 = large-and-regular /
	// small-and-regular. A zero denominator with a non-zero numerator yields
	// +Inf; 0/0 yields 0.
	Ratio1 float64
	Ratio2 float64
}

// wireRatio is the JSON form of a classification ratio. Ratio2 is +Inf for
// any workload with large-regular but no small-regular sets (NW at low
// rates, for one), and encoding/json rejects non-finite numbers outright —
// without this wrapper such a result cannot travel over /v1/runs at all.
// Non-finite values encode as the strings "+Inf"/"-Inf"/"NaN"; finite values
// stay plain numbers, so the wire form is unchanged wherever it worked
// before.
type wireRatio float64

func (r wireRatio) MarshalJSON() ([]byte, error) {
	f := float64(r)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(f)
}

func (r *wireRatio) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*r = wireRatio(math.Inf(1))
		case "-Inf":
			*r = wireRatio(math.Inf(-1))
		case "NaN":
			*r = wireRatio(math.NaN())
		default:
			return fmt.Errorf("hpe: unknown ratio sentinel %q", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*r = wireRatio(f)
	return nil
}

// wireRatioStats mirrors RatioStats field for field with wire-safe ratios.
type wireRatioStats struct {
	Regular      int
	Irregular    int
	SmallRegular int
	LargeRegular int
	Ratio1       wireRatio
	Ratio2       wireRatio
}

// MarshalJSON encodes the ratios wire-safely (see wireRatio).
func (s RatioStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireRatioStats{
		Regular: s.Regular, Irregular: s.Irregular,
		SmallRegular: s.SmallRegular, LargeRegular: s.LargeRegular,
		Ratio1: wireRatio(s.Ratio1), Ratio2: wireRatio(s.Ratio2),
	})
}

// UnmarshalJSON is the inverse of MarshalJSON, accepting both the sentinel
// strings and plain numbers.
func (s *RatioStats) UnmarshalJSON(b []byte) error {
	var w wireRatioStats
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = RatioStats{
		Regular: w.Regular, Irregular: w.Irregular,
		SmallRegular: w.SmallRegular, LargeRegular: w.LargeRegular,
		Ratio1: float64(w.Ratio1), Ratio2: float64(w.Ratio2),
	}
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(num) / float64(den)
}

// computeRatios traverses the chain and buckets every entry's counter:
// regular counters are divisible by the page-set size; small-and-regular
// equal 1× or 2× the set size; large-and-regular equal 3× or 4×.
func computeRatios(c *setChain, setSize int) RatioStats {
	var s RatioStats
	for e := c.at(c.head); e != nil; e = c.at(e.next) {
		cnt := e.counter
		if cnt%setSize == 0 && cnt > 0 {
			s.Regular++
			switch cnt {
			case setSize, 2 * setSize:
				s.SmallRegular++
			case 3 * setSize, 4 * setSize:
				s.LargeRegular++
			}
		} else {
			s.Irregular++
		}
	}
	s.Ratio1 = ratio(s.Irregular, s.Regular)
	s.Ratio2 = ratio(s.LargeRegular, s.SmallRegular)
	return s
}

// Classify applies Table III to the ratio statistics:
//
//	regular      ratio₁ ≤ 0.3, ratio₂ < 2
//	irregular#1  ratio₁ ≤ 0.3, ratio₂ ≥ 2
//	irregular#2  ratio₁ > 0.3
func Classify(s RatioStats) Category {
	if s.Ratio1 > ratio1Threshold {
		return CategoryIrregular2
	}
	if s.Ratio2 >= ratio2Threshold {
		return CategoryIrregular1
	}
	return CategoryRegular
}

// initialStrategy returns the eviction strategy each category starts with
// (§IV-D): MRU-C for regular applications, LRU for both irregular classes.
func initialStrategy(c Category) Strategy {
	if c == CategoryRegular {
		return StrategyMRUC
	}
	return StrategyLRU
}
