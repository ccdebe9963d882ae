// Run-digest table: a small hpe.Run matrix whose full serialized Result is
// pinned, cell by cell, as a SHA-256 in testdata/run_digests.json. The
// results.json golden checks suite aggregates; this table checks every
// statistic of individual runs (faults, evictions, cycles, walk and HIR
// counters, the HPE snapshot), so a simulator change that cancels out in
// an aggregate still fails `go test ./...`. Regenerate after an
// intentional behaviour change with:
//
//	go test -run RunDigests -update-run-digests .
package hpe_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpe"
)

var updateRunDigests = flag.Bool("update-run-digests", false,
	"rewrite testdata/run_digests.json from the current simulator")

const runDigestsPath = "testdata/run_digests.json"

// runDigest is one pinned cell: its name and the SHA-256 of the
// json.Marshal'ed Result.
type runDigest struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

type runDigestCell struct {
	name string
	spec hpe.RunSpec
}

// runDigestCells is the matrix: every registry policy on one catalog app at
// 75% oversubscription, one scale-4 cell, the baseline policies on BFS at
// 50%, one more thrashing-preset RRIP cell, three data-path and page-walk-
// cache cells, six cells on HPE's division, switching, jump, sensitivity
// and tuning paths, one phase preset and one tenant preset.
func runDigestCells(t *testing.T) []runDigestCell {
	var cells []runDigestCell
	for _, name := range hpe.PolicyNames() {
		cells = append(cells, runDigestCell{"policy-" + name, hpe.RunSpec{App: "HSD", Policy: name, Rate: 75}})
	}
	cells = append(cells, runDigestCell{"scale4-hpe", hpe.RunSpec{App: "BFS", Policy: "hpe", Rate: 50, Scale: 4}})
	// BFS at 50% reaches the victim-selection tie and aging paths (LFU count
	// ties, NRU epoch resets, RRIP aging rounds, Ideal's never-used-again
	// ties) far more often than the 75% cells do; SRD adds a second
	// thrashing-preset RRIP cell.
	for _, name := range []string{"rrip", "lfu", "nru", "ideal", "clock", "clockpro", "arc", "setlru"} {
		cells = append(cells, runDigestCell{"bfs50-" + name, hpe.RunSpec{App: "BFS", Policy: name, Rate: 50}})
	}
	cells = append(cells, runDigestCell{"srd50-rrip", hpe.RunSpec{App: "SRD", Policy: "rrip", Rate: 50}})
	// The data path and the page-walk cache: HWL at 75% evicts while its
	// lines sit in L1D/L2D, so page-wide line invalidation runs; BFS at
	// scale 4 is the cell where the PWC replaces entries.
	cells = append(cells,
		runDigestCell{"datapath-hwl75-lru", hpe.RunSpec{App: "HWL", Policy: "lru", Rate: 75, DataPath: true}},
		runDigestCell{"pwc-datapath-hwl50-hpe", hpe.RunSpec{App: "HWL", Policy: "hpe", Rate: 50, Design: "pwc", DataPath: true}},
		runDigestCell{"pwc-bfs50-lru-scale4", hpe.RunSpec{App: "BFS", Policy: "lru", Rate: 50, Scale: 4, Design: "pwc"}})
	// HPE's own paths: NW divides its page sets, BFS at 75% is the
	// irregular#1 application whose strategy switches (Fig. 13), GEM at
	// 75% is the regular one whose MRU-C search point jumps, the
	// sensitivity methodology feeds hits ideally under a manual strategy,
	// and two cells move the set size, interval and division threshold off
	// the paper's values.
	cells = append(cells,
		runDigestCell{"nw50-hpe", hpe.RunSpec{App: "NW", Policy: "hpe", Rate: 50}},
		runDigestCell{"bfs75-hpe", hpe.RunSpec{App: "BFS", Policy: "hpe", Rate: 75}},
		runDigestCell{"gem75-hpe", hpe.RunSpec{App: "GEM", Policy: "hpe", Rate: 75}},
		runDigestCell{"sensitivity-hsd75-hpe", hpe.RunSpec{App: "HSD", Policy: "hpe", Rate: 75,
			Tuning: hpe.RunTuning{SensitivityHPE: true}}},
		runDigestCell{"kmn75-hpe-set8-interval32", hpe.RunSpec{App: "KMN", Policy: "hpe", Rate: 75,
			Tuning: hpe.RunTuning{SetSizeShift: 3, HPEInterval: 32}}},
		runDigestCell{"nw50-hpe-division32", hpe.RunSpec{App: "NW", Policy: "hpe", Rate: 50,
			Tuning: hpe.RunTuning{HPEDivisionThreshold: 32}}})
	for _, preset := range []string{"burst", "colo-mix"} {
		sc, ok := hpe.ScenarioByName(preset)
		if !ok {
			t.Fatalf("no scenario preset %q", preset)
		}
		cells = append(cells, runDigestCell{"scenario-" + preset, hpe.RunSpec{
			Phases: sc.Phases, Tenants: sc.Tenants, Interleave: sc.Interleave, Policy: "hpe", Rate: 75}})
	}
	return cells
}

// TestRunDigests recomputes every cell and compares its Result digest with
// the committed table.
func TestRunDigests(t *testing.T) {
	start := time.Now()
	var current []runDigest
	for _, c := range runDigestCells(t) {
		r, err := hpe.Run(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: marshal Result: %v", c.name, err)
		}
		sum := sha256.Sum256(body)
		current = append(current, runDigest{Name: c.name, SHA256: hex.EncodeToString(sum[:])})
	}
	t.Logf("%d cells in %v", len(current), time.Since(start).Round(time.Millisecond))

	if *updateRunDigests {
		body, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatalf("marshal digests: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(runDigestsPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(runDigestsPath, append(body, '\n'), 0o644); err != nil {
			t.Fatalf("write digests: %v", err)
		}
		t.Logf("rewrote %s with %d cells", runDigestsPath, len(current))
		return
	}

	raw, err := os.ReadFile(runDigestsPath)
	if err != nil {
		t.Fatalf("read digests (regenerate with -update-run-digests): %v", err)
	}
	var want []runDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode digests: %v", err)
	}
	if len(want) != len(current) {
		t.Fatalf("cell count drifted: committed %d, current %d — "+
			"update deliberately with -update-run-digests", len(want), len(current))
	}
	for i, w := range want {
		if got := current[i]; got != w {
			t.Errorf("cell %d: %s sha256 %s, committed %s %s — simulator behaviour changed; "+
				"if intentional, regenerate with -update-run-digests", i, got.Name, got.SHA256, w.Name, w.SHA256)
		}
	}
}
