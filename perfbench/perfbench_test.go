package main

import (
	"bytes"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func testStream(t *testing.T, seed uint64) []request {
	t.Helper()
	universe, err := serveUniverse()
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildStream(seed, streamLen, universe)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameStream(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Class != b[i].Class || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

func TestStreamSameSeedSameStream(t *testing.T) {
	if !sameStream(testStream(t, 7), testStream(t, 7)) {
		t.Fatal("seed 7 built two different streams")
	}
}

func TestStreamDifferentSeedsDiffer(t *testing.T) {
	if sameStream(testStream(t, 7), testStream(t, 8)) {
		t.Fatal("seeds 7 and 8 built the same stream")
	}
}

// TestStreamMix checks the class shares stay near 75/15/10 and that each
// class means what it says: repeats name specs first sent at least hitLag
// requests earlier, new specs are never repeated as new, and a pair is two
// consecutive requests for one new spec.
func TestStreamMix(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		s := testStream(t, seed)
		if len(s) < streamLen || len(s) > streamLen+1 {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(s), streamLen)
		}
		count := map[string]int{}
		first := map[string]int{}
		for i, r := range s {
			count[r.Class]++
			switch r.Class {
			case classHit:
				at, ok := first[r.ID]
				if !ok || i-at < hitLag {
					t.Fatalf("seed %d: request %d repeats %s first sent at %d (ok=%v)", seed, i, r.ID, at, ok)
				}
			case classNew:
				if _, ok := first[r.ID]; ok {
					t.Fatalf("seed %d: request %d is new but %s was sent before", seed, i, r.ID)
				}
				first[r.ID] = i
			case classPair:
				if _, ok := first[r.ID]; !ok {
					first[r.ID] = i
					if i+1 >= len(s) || s[i+1].ID != r.ID || s[i+1].Class != classPair {
						t.Fatalf("seed %d: pair at %d is not followed by its twin", seed, i)
					}
				} else if s[i-1].ID != r.ID {
					t.Fatalf("seed %d: second half of pair at %d is not adjacent", seed, i)
				}
			}
		}
		for class, want := range map[string]float64{classHit: 0.75, classNew: 0.15, classPair: 0.10} {
			got := float64(count[class]) / float64(len(s))
			if math.Abs(got-want) > 0.03 {
				t.Errorf("seed %d: %s share %.3f, want %.2f±0.03", seed, class, got, want)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	q := percentile(mk(100), 99)
	if q.OK || q.Beyond != 1 || q.Value != 99 {
		t.Errorf("p99 of 100 samples = %+v, want value 99, 1 beyond, not OK", q)
	}
	q = percentile(mk(1000), 99)
	if !q.OK || q.Beyond != 10 || q.Value != 990 {
		t.Errorf("p99 of 1000 samples = %+v, want value 990, 10 beyond, OK", q)
	}
	if got := tail(mk(100)); got.P != 90 || got.Beyond != 10 {
		t.Errorf("tail of 100 samples = %+v, want p90 with 10 beyond", got)
	}
	if got := tail(mk(5)); got.P != 50 {
		t.Errorf("tail of 5 samples = %+v, want the median", got)
	}
	s := percentile(mk(100), 99).String()
	if !strings.Contains(s, "n=100") || !strings.Contains(s, "1 beyond") || !strings.Contains(s, "fewer than 10") {
		t.Errorf("String() = %q: must print the sample count, the samples beyond and the warning", s)
	}
}

func TestRatioPrintsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 4, What: "hits", Base: "lookups"}
	if r.Value() != 0.75 {
		t.Errorf("Value = %v, want 0.75", r.Value())
	}
	if s := r.String(); !strings.Contains(s, "3 hits of 4 lookups") {
		t.Errorf("String() = %q, want the counts and base", s)
	}
	if (ratio{}).Value() != 0 {
		t.Error("an empty base must give 0, not NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50}, // overlaps a
		{Name: "c", Parent: 1, Start: 15, End: 20},
	}}
	self := tr.selfTimes()
	want := []time.Duration{60, 25, 20, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", tr.spans[i].Name, self[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 1, -1))
	tr.record("y", 1, -1, time.Now(), time.Now())
}

func TestCompareMetricsGoldenRule(t *testing.T) {
	want := map[string]float64{"a": 1, "b": 2, "inf": math.MaxFloat64, "classifyUS": 9}
	got := map[string]float64{"a": 1 + 1e-9, "b": 2.1, "inf": math.Inf(1), "classifyUS": 1, "nan": math.NaN(), "new": 3}
	bad := compareMetrics("overhead", want, got)
	if len(bad) != 2 || !strings.Contains(bad[0], "overhead/b") || !strings.Contains(bad[1], "overhead/new") {
		t.Errorf("mismatches = %q, want exactly overhead/b and overhead/new", bad)
	}
}

func TestRefusedRequestFails(t *testing.T) {
	stream := []request{{ID: "run-x"}, {ID: "run-x"}}
	fx := fixture{Serve: map[string]bodyFixture{"run-x": {Body: digest([]byte("ok"))}}}
	replies := []reply{{Status: http.StatusOK, Digest: digest([]byte("ok"))}, {Status: http.StatusTooManyRequests}}
	failed, notes := checkReplies(stream, replies, fx)
	if failed != 1 || len(notes) != 1 || !strings.Contains(notes[0], "status 429") {
		t.Errorf("failed=%d notes=%q, want the 429 counted as one failure", failed, notes)
	}
}

// TestBackendTapCountsDispatches drives a short stream through a cluster
// whose backends are wrapped by the tap; run it with -race.
func TestBackendTapCountsDispatches(t *testing.T) {
	stream := testStream(t, 5)[:40]
	tr := newTracer()
	tap := newBackendTap(tr, 2)
	tg, err := startCluster(2, tap)
	if err != nil {
		t.Fatal(err)
	}
	replies, _ := driveStream(tg.url, stream, 2, tr, 0, func(i, span int) { tap.sent(stream[i].ID, int64(i), span) })
	tg.close()
	tap.inflight.Wait()
	dispatched := 0
	for _, r := range replies {
		if r.Status != http.StatusOK {
			t.Fatalf("status %d: %s", r.Status, r.Body)
		}
		if r.Source == "dispatch" {
			dispatched++
		}
	}
	got := tap.dispatches[0].Load() + tap.dispatches[1].Load()
	if got != int64(dispatched) || len(tap.backendDur) != dispatched {
		t.Errorf("tap saw %d dispatches (%d timed), clients saw %d", got, len(tap.backendDur), dispatched)
	}
}
