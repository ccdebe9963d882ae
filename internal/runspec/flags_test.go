package runspec

import (
	"flag"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseArgs runs args through a fresh flag set, as a CLI would.
func parseArgs(t *testing.T, args []string) Spec {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return spec()
}

// specArgs renders a spec as a command line that re-parses to the same
// spec. Tuning has no flag surface (the sensitivity knobs are
// suite-internal), so only the core dimensions render.
func specArgs(s Spec) []string {
	args := []string{
		"-app", s.App,
		"-policy", s.Policy,
		"-rate", strconv.Itoa(s.Rate),
		"-seed", strconv.FormatInt(s.Seed, 10),
		"-design", s.Design,
		"-prefetch", strconv.Itoa(s.Prefetch),
		"-channels", strconv.Itoa(s.Channels),
		"-hir", s.HIR,
		"-scale", strconv.Itoa(s.Scale),
		"-max-cycles", strconv.FormatUint(s.MaxCycles, 10),
	}
	if s.DataPath {
		args = append(args, "-datapath")
	}
	if s.Phases != "" {
		args = append(args, "-phases", s.Phases)
	}
	if s.Tenants != "" {
		args = append(args, "-tenants", s.Tenants)
	}
	if s.Interleave != 0 {
		args = append(args, "-interleave", strconv.Itoa(s.Interleave))
	}
	return args
}

// TestFlagsDefaultsMatchSpecDefaults: an hpesim invocation with no flags at
// all must mean the same run as the registered flag defaults re-rendered —
// i.e. the flag defaults ARE canonical spec defaults.
func TestFlagsDefaultsMatchSpecDefaults(t *testing.T) {
	sp := parseArgs(t, nil)
	c, err := sp.Canonicalize()
	if err != nil {
		t.Fatalf("default flags canonicalize: %v", err)
	}
	want := Spec{App: "HSD", Policy: "hpe", Rate: 75, Seed: 1,
		Design: "l2tlb", Channels: 1, HIR: "on", Scale: 1}
	if c != want {
		t.Errorf("default flags = %+v, want %+v", c, want)
	}
}

// TestFlagsRoundTripProperty is the lossless-round-trip property over a
// deterministic sample of the core spec dimensions: spec → specArgs →
// re-parse → same canonical spec and same ID. Tuning is excluded by
// design — it has no flag surface.
func TestFlagsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) // fixed seed: reproducible sample
	apps := []string{"HSD", "KMN", "BFS", "B+T", "SAD", "GEM"}
	policies := []string{"lru", "random", "rrip", "clockpro", "ideal", "hpe",
		"fifo", "lfu", "clock", "nru", "arc", "setlru"}
	designs := []string{"", "l2tlb", "pwc"}
	hirs := []string{"", "auto", "on", "off"}
	for i := 0; i < 500; i++ {
		sp := Spec{
			App:      apps[rng.Intn(len(apps))],
			Policy:   policies[rng.Intn(len(policies))],
			Rate:     1 + rng.Intn(100),
			Seed:     int64(rng.Intn(3)),
			Design:   designs[rng.Intn(len(designs))],
			Prefetch: rng.Intn(4),
			Channels: rng.Intn(5),
			DataPath: rng.Intn(2) == 1,
			HIR:      hirs[rng.Intn(len(hirs))],
			Scale:    rng.Intn(5),
			MaxCycles: map[bool]uint64{false: 0,
				true: uint64(1 + rng.Intn(1000000))}[rng.Intn(4) == 0],
		}
		c, err := sp.Canonicalize()
		if err != nil {
			// hir "on" + sensitivity is the only invalid combination above,
			// and Tuning is zero here, so every sample must canonicalize.
			t.Fatalf("sample %d %+v: %v", i, sp, err)
		}
		reparsed := parseArgs(t, specArgs(c))
		rc, err := reparsed.Canonicalize()
		if err != nil {
			t.Fatalf("sample %d re-parse %v: %v", i, specArgs(c), err)
		}
		if rc != c {
			t.Fatalf("sample %d round trip lost information:\n spec  %+v\n flags %v\n back  %+v",
				i, c, specArgs(c), rc)
		}
		if rc.ID() != c.ID() {
			t.Fatalf("sample %d IDs diverged across the flag round trip", i)
		}
	}
}

// TestScenarioFlagsRoundTrip: the workload-v2 flags survive the spec → args →
// spec round trip, and -phases / -tenants supersede the -app default
// so the spec carries exactly one workload source.
func TestScenarioFlagsRoundTrip(t *testing.T) {
	for _, args := range [][]string{
		{"-phases", "hot:32,hsd:96,hot:32", "-policy", "hpe", "-rate", "75"},
		{"-tenants", "hsd,bfs", "-interleave", "512", "-policy", "lru", "-rate", "50"},
		{"-tenants", "HSD,BFS", "-policy", "lru", "-rate", "50"},
		{"-app", "trace:runs/colo.hpet", "-policy", "lru", "-rate", "50"},
	} {
		c, err := parseArgs(t, args).Canonicalize()
		if err != nil {
			t.Fatalf("flags %v: %v", args, err)
		}
		rc, err := parseArgs(t, specArgs(c)).Canonicalize()
		if err != nil {
			t.Fatalf("re-parse %v: %v", specArgs(c), err)
		}
		if rc != c || rc.ID() != c.ID() {
			t.Errorf("scenario flags round trip lost information:\n spec  %+v\n back  %+v", c, rc)
		}
		if (c.Phases != "" || c.Tenants != "") && c.App != "" {
			t.Errorf("scenario flags left the -app default in place: %+v", c)
		}
	}
}

// TestWireBodyMatchesFlags: for every sampled run, a minimal POST /v1/runs
// body (defaults omitted) and the fully-spelled CLI flag rendering decode to
// the same content address — the satellite contract tying the server's wire
// form to the CLI surface.
func TestWireBodyMatchesFlags(t *testing.T) {
	cases := []struct {
		body string
		args []string
	}{
		{`{"app":"HSD","policy":"hpe","rate":75}`,
			[]string{"-app", "hsd", "-policy", "HPE", "-rate", "75"}},
		{`{"app":"KMN","policy":"clock-pro","rate":50,"scale":4}`,
			[]string{"-app", "KMN", "-policy", "clockpro", "-rate", "50",
				"-scale", "4", "-seed", "1", "-design", "l2tlb"}},
		{`{"app":"BFS","policy":"lru","rate":100,"datapath":true,"channels":2}`,
			[]string{"-app", "BFS", "-policy", "lru", "-rate", "100",
				"-datapath", "-channels", "2", "-hir", "auto"}},
	}
	for _, tc := range cases {
		wire, err := Decode(strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("decode %s: %v", tc.body, err)
		}
		cli, err := parseArgs(t, tc.args).Canonicalize()
		if err != nil {
			t.Fatalf("flags %v: %v", tc.args, err)
		}
		if wire.ID() != cli.ID() {
			t.Errorf("wire body and CLI flags disagree:\n body  %s → %s\n flags %v → %s",
				tc.body, wire.ID(), tc.args, cli.ID())
		}
	}
}
