package registry

import (
	"strings"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/policy"
	"hpe/internal/trace"
)

func tinyTrace() *trace.Trace {
	refs := make([]addrspace.PageID, 0, 64)
	for i := 0; i < 8; i++ {
		for p := addrspace.PageID(0); p < 8; p++ {
			refs = append(refs, p)
		}
	}
	return trace.New("tiny", refs)
}

// tinyFuture lazily builds the Belady index over tinyTrace.
func tinyFuture() *trace.FutureIndex { return trace.BuildFutureIndex(tinyTrace()) }

// allOpts is a full option set, as Spec.Materialize passes for a thrashing
// app: every registered policy must build with it.
func allOpts() Options {
	return Options{Seed: 7, Capacity: 16, Future: tinyFuture, ThrashingRRIP: true}
}

// TestEveryNameRoundTrips builds every registered policy and checks its
// Name() matches the registry's display string — the contract reports and
// golden outputs depend on.
func TestEveryNameRoundTrips(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	for _, name := range names {
		pol, err := New(name, allOpts())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := pol.Name(); got != DisplayName(name) {
			t.Errorf("New(%q).Name() = %q, want display %q", name, got, DisplayName(name))
		}
		// A second build must be a fresh instance.
		pol2, err := New(name, allOpts())
		if err != nil {
			t.Fatalf("New(%q) second build: %v", name, err)
		}
		if pol == pol2 {
			t.Errorf("New(%q) returned a shared instance", name)
		}
	}
}

func TestDisplayNames(t *testing.T) {
	want := map[string]string{
		"lru": "LRU", "random": "Random", "rrip": "RRIP", "clockpro": "CLOCK-Pro",
		"ideal": "Ideal", "hpe": "HPE", "fifo": "FIFO", "lfu": "LFU",
		"clock": "CLOCK", "nru": "NRU", "arc": "ARC", "setlru": "SetLRU",
	}
	for name, display := range want {
		if got := DisplayName(name); got != display {
			t.Errorf("DisplayName(%q) = %q, want %q", name, got, display)
		}
	}
	if len(want) != len(Names()) {
		t.Errorf("registry has %d policies, test expects %d", len(Names()), len(want))
	}
	if got := DisplayName("not-a-policy"); got != "not-a-policy" {
		t.Errorf("DisplayName of unknown = %q", got)
	}
}

func TestUnknownNameErrors(t *testing.T) {
	_, err := New("not-a-policy", Options{})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "not-a-policy") || !strings.Contains(err.Error(), "lru") {
		t.Errorf("error should name the input and known policies: %v", err)
	}
}

func TestRequiredOptions(t *testing.T) {
	for _, name := range []string{"clockpro", "arc"} {
		if _, err := New(name, Options{}); err == nil {
			t.Errorf("%s without Capacity accepted", name)
		}
	}
	if _, err := New("ideal", Options{}); err == nil {
		t.Error("ideal without future index accepted")
	}
	built := false
	fi := func() *trace.FutureIndex { built = true; return tinyFuture() }
	if _, err := New("ideal", Options{Future: fi}); err != nil {
		t.Errorf("ideal with future index: %v", err)
	}
	if !built {
		t.Error("ideal did not consume the future index")
	}
	// The lazy index must NOT be built for policies that don't need it.
	built = false
	if _, err := New("lru", Options{Future: fi}); err != nil || built {
		t.Errorf("lru consumed the future index (built=%v, err=%v)", built, err)
	}
}

func TestAliasesAndCase(t *testing.T) {
	for alias, canonical := range map[string]string{
		"clock-pro": "clockpro", "belady": "ideal", "min": "ideal",
		"set-lru": "setlru", "LRU": "lru", " hpe ": "hpe", "CLOCK-Pro": "clockpro",
	} {
		info, ok := Lookup(alias)
		if !ok || info.Name != canonical {
			t.Errorf("Lookup(%q) = %+v, want canonical %q", alias, info, canonical)
		}
	}
}

func TestRandomSeedDeterminism(t *testing.T) {
	run := func(seed int64) uint64 {
		pol, err := New("random", Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return policy.Replay(tinyTrace(), pol, 4).Evictions
	}
	if run(1) != run(1) {
		t.Error("same seed, different replay")
	}
}

func TestThrashingRRIPIgnoredByOthers(t *testing.T) {
	// ThrashingRRIP changes RRIP's configuration but must not break or
	// alter any other policy's construction.
	for _, name := range Names() {
		without := allOpts()
		without.ThrashingRRIP = false
		with, err1 := New(name, allOpts())
		plain, err2 := New(name, without)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", name, err1, err2)
		}
		if with.Name() != plain.Name() {
			t.Errorf("%s: name changed by ThrashingRRIP", name)
		}
	}
}

func TestInfosMatchNames(t *testing.T) {
	infos := Infos()
	names := Names()
	if len(infos) != len(names) {
		t.Fatalf("Infos %d vs Names %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("Infos[%d].Name = %q, want %q", i, info.Name, names[i])
		}
		if info.Display == "" || info.Description == "" {
			t.Errorf("%s: empty display or description", info.Name)
		}
	}
	if !NeedsHIR("hpe") || NeedsHIR("lru") {
		t.Error("NeedsHIR wrong for hpe/lru")
	}
	all := AllNames()
	if len(all) <= len(names) {
		t.Error("AllNames should include aliases")
	}
}
