package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
)

// mustNew returns New's trace over refs with any barriers and annotations,
// panicking on an error: every test input here is well-formed.
func mustNew(name string, refs []addrspace.PageID, barriers ...int) *Trace {
	return mustAnnotated(name, refs, barriers, nil, nil)
}

// mustAnnotated is mustNew with phase segments and tenant ranges.
func mustAnnotated(name string, refs []addrspace.PageID, barriers []int, segs []Segment, tens []TenantRange) *Trace {
	t, err := New(name, refs, barriers, segs, tens)
	if err != nil {
		panic(err)
	}
	return t
}

func pages(ids ...uint64) []addrspace.PageID {
	out := make([]addrspace.PageID, len(ids))
	for i, id := range ids {
		out[i] = addrspace.PageID(id)
	}
	return out
}

func TestFootprintCountsUniquePages(t *testing.T) {
	tr := mustNew("t", pages(1, 2, 3, 2, 1, 1))
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tr.Len())
	}
	if tr.Footprint() != 3 {
		t.Fatalf("Footprint = %d, want 3", tr.Footprint())
	}
	if tr.FootprintBytes() != 3*4096 {
		t.Fatalf("FootprintBytes = %d, want %d", tr.FootprintBytes(), 3*4096)
	}
}

func TestFootprintEmptyTrace(t *testing.T) {
	tr := mustNew("empty", nil)
	if tr.Footprint() != 0 {
		t.Fatalf("empty footprint = %d", tr.Footprint())
	}
}

func TestUniquePagesSorted(t *testing.T) {
	tr := mustNew("t", pages(9, 1, 5, 1, 9))
	got := tr.UniquePages()
	want := pages(1, 5, 9)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UniquePages = %v, want %v", got, want)
	}
}

func TestCounts(t *testing.T) {
	tr := mustNew("t", pages(7, 7, 8, 7))
	c := tr.Counts()
	if c[7] != 3 || c[8] != 1 {
		t.Fatalf("Counts = %v", c)
	}
}

func TestFutureIndexNextUse(t *testing.T) {
	tr := mustNew("t", pages(10, 20, 10, 30, 20, 10))
	fi := BuildFutureIndex(tr)
	if fi.Len() != 6 {
		t.Fatalf("Len = %d", fi.Len())
	}
	cases := []struct {
		page  uint64
		after int
		want  int
		ok    bool
	}{
		{10, -1, 0, true},
		{10, 0, 2, true},
		{10, 2, 5, true},
		{10, 5, 0, false},
		{20, 1, 4, true},
		{30, 3, 0, false},
		{99, -1, 0, false},
	}
	for _, c := range cases {
		got, ok := fi.NextUse(addrspace.PageID(c.page), c.after)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NextUse(%d, %d) = (%d,%v), want (%d,%v)", c.page, c.after, got, ok, c.want, c.ok)
		}
	}
}

// TestFutureIndexMatchesScan checks NextUse against a linear scan of the
// trace for every page and position, on random traces over two page pools:
// sparse IDs (0, leaf-edge neighbours, IDs past 2^40 and the top of the ID
// space), and a universe of pages 1e6 apart, whose leaves are too far apart
// for the page table's dense window, so its far map serves NextUse. The flat
// positions slice and its per-page runs must agree with the definition.
func TestFutureIndexMatchesScan(t *testing.T) {
	spread := make([]addrspace.PageID, 16)
	for i := range spread {
		spread[i] = addrspace.PageID(i * 1_000_000)
	}
	pools := [][]addrspace.PageID{
		pages(0, 1, 63, 64, 65, 1<<40, 1<<40+1, 1<<52, 1<<63, 1<<64-1),
		spread,
	}
	rng := rand.New(rand.NewSource(7))
	for _, pool := range pools {
		for round := 0; round < 20; round++ {
			refs := make([]addrspace.PageID, rng.Intn(60))
			for i := range refs {
				refs[i] = pool[rng.Intn(len(pool))]
			}
			fi := BuildFutureIndex(mustNew("scan", refs))
			for _, p := range pool {
				for after := -1; after <= len(refs); after++ {
					want, wantOK := 0, false
					for i := after + 1; i < len(refs); i++ {
						if refs[i] == p {
							want, wantOK = i, true
							break
						}
					}
					if got, ok := fi.NextUse(p, after); ok != wantOK || got != want {
						t.Fatalf("pool of %d, round %d: NextUse(%d, %d) = (%d,%v), want (%d,%v)",
							len(pool), round, p, after, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// TestFutureIndexConcurrentReaders shares one index between goroutines, as
// runspec.Cache does between concurrent runs of one trace: under -race a
// NextUse that writes shared state fails here, and every reader must see the
// answers a lone reader sees.
func TestFutureIndexConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	refs := make([]addrspace.PageID, 4000)
	for i := range refs {
		refs[i] = addrspace.PageID(rng.Intn(300)) << (rng.Intn(3) * 20)
	}
	fi := BuildFutureIndex(mustNew("shared", refs))
	lone := func() []int {
		out := make([]int, len(refs))
		for i, p := range refs {
			out[i], _ = fi.NextUse(p, i)
		}
		return out
	}
	want := lone()
	var wg sync.WaitGroup
	got := make([][]int, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = lone()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("reader %d saw different next uses than a lone reader", g)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := mustNew("myworkload", pages(0, 1, 100, 50, 1<<40, 3))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.Refs, tr.Refs) {
		t.Fatalf("round trip = %q %v, want %q %v", got.Name, got.Refs, tr.Name, tr.Refs)
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	tr := mustNew("", nil)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Name != "" {
		t.Fatalf("empty round trip = %q len %d", got.Name, got.Len())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("HPET"),         // truncated after magic
		[]byte("HPET\x01"),     // old version
		[]byte("HPET\x03"),     // future version
		[]byte("HPET\x02\x05"), // name length 5 but no name bytes
	}
	for i, raw := range cases {
		if _, err := Read(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: Read accepted garbage", i)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(name string, raw []uint32) bool {
		refs := make([]addrspace.PageID, len(raw))
		for i, r := range raw {
			refs[i] = addrspace.PageID(r)
		}
		tr := mustNew(name, refs)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Name != name || got.Len() != len(refs) {
			return false
		}
		for i := range refs {
			if got.Refs[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerBasics(t *testing.T) {
	g := addrspace.DefaultGeometry()
	// Pages 0..15 are one set; each referenced once => set counter 16.
	var refs []addrspace.PageID
	for i := 0; i < 16; i++ {
		refs = append(refs, addrspace.PageID(i))
	}
	p := Profiler(mustNew("one-set", refs), g)
	if p.Footprint != 16 || p.SetFootprint != 1 {
		t.Fatalf("footprint=%d sets=%d, want 16 and 1", p.Footprint, p.SetFootprint)
	}
	if p.SetCounterHistogram[16] != 1 {
		t.Fatalf("histogram = %v, want {16:1}", p.SetCounterHistogram)
	}
	if p.MinPageRefs != 1 || p.MaxPageRefs != 1 || p.MeanPageRefs != 1 {
		t.Fatalf("per-page stats = %d/%f/%d", p.MinPageRefs, p.MeanPageRefs, p.MaxPageRefs)
	}
	reg, irr, small, large := p.CounterClasses(16)
	if reg != 1 || irr != 0 || small != 1 || large != 0 {
		t.Fatalf("classes = %d,%d,%d,%d", reg, irr, small, large)
	}
}

func TestProfilerCapsSetCounters(t *testing.T) {
	g := addrspace.DefaultGeometry()
	// One page referenced 1000 times: set counter caps at 64 (=4×16).
	refs := make([]addrspace.PageID, 1000)
	p := Profiler(mustNew("hot", refs), g)
	if p.SetCounterHistogram[64] != 1 {
		t.Fatalf("histogram = %v, want cap at 64", p.SetCounterHistogram)
	}
	reg, irr, _, large := p.CounterClasses(16)
	if reg != 1 || irr != 0 || large != 1 {
		t.Fatalf("classes after cap = %d,%d,large=%d", reg, irr, large)
	}
}

func TestProfilerEmpty(t *testing.T) {
	p := Profiler(mustNew("e", nil), addrspace.DefaultGeometry())
	if p.Footprint != 0 || p.Refs != 0 {
		t.Fatalf("empty profile = %+v", p)
	}
	_ = p.String()
}

func TestCounterClassesIrregular(t *testing.T) {
	g := addrspace.DefaultGeometry()
	// 5 references to one set: irregular (5 % 16 != 0).
	refs := pages(0, 1, 2, 3, 4)
	p := Profiler(mustNew("irr", refs), g)
	reg, irr, _, _ := p.CounterClasses(16)
	if reg != 0 || irr != 1 {
		t.Fatalf("classes = reg %d irr %d, want 0,1", reg, irr)
	}
}

func TestReuseDistances(t *testing.T) {
	// a b c a : reuse distance of the second a is 2 (b and c in between).
	d := ReuseDistances(mustNew("t", pages(1, 2, 3, 1)))
	if len(d) != 1 || d[0] != 2 {
		t.Fatalf("ReuseDistances = %v, want [2]", d)
	}
	// a a : distance 0.
	d = ReuseDistances(mustNew("t", pages(1, 1)))
	if len(d) != 1 || d[0] != 0 {
		t.Fatalf("ReuseDistances = %v, want [0]", d)
	}
	// No reuse.
	d = ReuseDistances(mustNew("t", pages(1, 2, 3)))
	if len(d) != 0 {
		t.Fatalf("ReuseDistances = %v, want empty", d)
	}
}

func TestReuseDistancesCyclic(t *testing.T) {
	// Cyclic pattern over k pages: every reuse distance is k-1.
	k := 20
	var refs []addrspace.PageID
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < k; i++ {
			refs = append(refs, addrspace.PageID(i))
		}
	}
	d := ReuseDistances(mustNew("cyclic", refs))
	if len(d) != 2*k {
		t.Fatalf("got %d distances, want %d", len(d), 2*k)
	}
	for _, v := range d {
		if v != k-1 {
			t.Fatalf("cyclic reuse distance %d, want %d", v, k-1)
		}
	}
}

// Property: reuse-distance count always equals refs - footprint.
func TestReuseDistanceCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		refs := make([]addrspace.PageID, n)
		for i := range refs {
			refs[i] = addrspace.PageID(rng.Intn(50))
		}
		tr := mustNew("rnd", refs)
		d := ReuseDistances(tr)
		if len(d) != tr.Len()-tr.Footprint() {
			t.Fatalf("trial %d: %d distances, want %d", trial, len(d), tr.Len()-tr.Footprint())
		}
		for _, v := range d {
			if v < 0 || v >= tr.Footprint() {
				t.Fatalf("trial %d: distance %d out of range [0,%d)", trial, v, tr.Footprint())
			}
		}
	}
}

func BenchmarkFutureIndexBuild(b *testing.B) {
	refs := make([]addrspace.PageID, 100000)
	rng := rand.New(rand.NewSource(1))
	for i := range refs {
		refs[i] = addrspace.PageID(rng.Intn(4096))
	}
	tr := mustNew("bench", refs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFutureIndex(tr)
	}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	refs := make([]addrspace.PageID, 10000)
	for i := range refs {
		refs[i] = addrspace.PageID(i % 1024)
	}
	tr := mustNew("bench", refs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
