// Trace-bytes golden: the SHA-256 of every generated trace's .hpet encoding
// (trace.Write) and its footprint, pinned in testdata/trace_digests.json. The
// run digests and results.json see a trace only through the simulator; this
// table checks the trace layer itself, so a generator or codec change that
// leaves the pinned runs unchanged still fails `go test ./...`. Regenerate
// after an intentional generator change with:
//
//	go test ./internal/workload/ -run TraceDigests -update-trace-digests
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateTraceDigests = flag.Bool("update-trace-digests", false,
	"rewrite testdata/trace_digests.json from the current generators")

const traceDigestsPath = "testdata/trace_digests.json"

// traceDigest is one pinned trace: its name, the SHA-256 of its Write
// output, and its footprint in pages.
type traceDigest struct {
	Name      string `json:"name"`
	SHA256    string `json:"sha256"`
	Footprint int    `json:"footprint"`
}

// traceDigestApps lists the pinned workloads: every catalog app at scales 1
// and 4, every scenario preset, and one phase schedule and one colocation
// with non-default gaps and quantum.
func traceDigestApps(t *testing.T) []App {
	var apps []App
	for _, a := range Catalog() {
		apps = append(apps, a, a.Scaled(4))
	}
	for _, sc := range Scenarios() {
		apps = append(apps, scenarioApp(t, sc.Phases, sc.Tenants, sc.Interleave))
	}
	return append(apps,
		scenarioApp(t, "HOT:32:7,HSD:48:1x2,PAT:48:0", "", 0),
		scenarioApp(t, "", "HOT,NWx2,MVT", 300))
}

// scenarioApp parses a phase schedule or, when phases is empty, a
// colocation at the given interleave quantum.
func scenarioApp(t *testing.T, phases, tenants string, interleave int) App {
	t.Helper()
	if phases != "" {
		ps, err := ParsePhases(phases)
		if err != nil {
			t.Fatal(err)
		}
		return ps.App()
	}
	co, err := ParseTenants(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return co.App(interleave)
}

// TestTraceDigests regenerates every pinned trace and compares its encoding
// digest and footprint with the committed table.
func TestTraceDigests(t *testing.T) {
	var current []traceDigest
	for _, a := range traceDigestApps(t) {
		tr := a.Generate()
		h := sha256.New()
		if err := tr.Write(h); err != nil {
			t.Fatalf("%s: Write: %v", a.Abbr, err)
		}
		current = append(current, traceDigest{
			Name:      a.Abbr + "/" + strconv.Itoa(a.Sets),
			SHA256:    hex.EncodeToString(h.Sum(nil)),
			Footprint: tr.Footprint(),
		})
	}

	if *updateTraceDigests {
		body, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatalf("marshal digests: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(traceDigestsPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(traceDigestsPath, append(body, '\n'), 0o644); err != nil {
			t.Fatalf("write digests: %v", err)
		}
		t.Logf("rewrote %s with %d traces", traceDigestsPath, len(current))
		return
	}

	raw, err := os.ReadFile(traceDigestsPath)
	if err != nil {
		t.Fatalf("read digests (regenerate with -update-trace-digests): %v", err)
	}
	var want []traceDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode digests: %v", err)
	}
	if len(want) != len(current) {
		t.Fatalf("trace count drifted: committed %d, current %d — "+
			"update deliberately with -update-trace-digests", len(want), len(current))
	}
	for i, w := range want {
		if got := current[i]; got != w {
			t.Errorf("trace %d: %s sha256 %s footprint %d, committed %s %s footprint %d — "+
				"generation changed; if intentional, regenerate with -update-trace-digests",
				i, got.Name, got.SHA256, got.Footprint, w.Name, w.SHA256, w.Footprint)
		}
	}
}
