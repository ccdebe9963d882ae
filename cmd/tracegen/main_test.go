package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpe"
	"hpe/internal/trace"
)

// TestConflictingSourceFlags pins the rejection of contradictory trace
// sources: tracegen must refuse, not silently prefer one.
func TestConflictingSourceFlags(t *testing.T) {
	cases := [][]string{
		{"-in", "x.hpet", "-app", "HSD"},
		{"-in", "x.hpet", "-all"},
		{"-app", "HSD", "-all"},
		{"-app", "HSD", "-phases", "HOT:16,HSD:32"},
		{"-phases", "HOT:16", "-tenants", "HSD,BFS"},
		{"-scenario", "diurnal", "-in", "x.hpet"},
	}
	for _, args := range cases {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "conflicting flags") {
			t.Errorf("run(%v) = %v, want conflicting-flags error", args, err)
		}
	}
	if err := run([]string{"-interleave", "256", "-app", "HSD"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-interleave") {
		t.Errorf("-interleave without -tenants: got %v, want interleave error", err)
	}
	if err := run(nil, io.Discard); err != errNoSource {
		t.Errorf("no source: got %v, want errNoSource", err)
	}
}

// TestWriteReloadRoundTrip writes a trace, reloads it, and pins that the
// reloaded profile is byte-identical to the generated one — for a v1
// catalog app and for both annotated (v2) scenario families — and that
// re-encoding the reloaded trace reproduces the file bytes exactly.
func TestWriteReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
	}{
		{"v1-app", []string{"-app", "HSD"}},
		{"v2-phases", []string{"-phases", "HOT:16,HSD:32,HOT:16"}},
		{"v2-tenants", []string{"-tenants", "HSD,BFS", "-interleave", "512"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".hpet")

			var direct bytes.Buffer
			if err := run(tc.args, &direct); err != nil {
				t.Fatalf("generate: %v", err)
			}
			if err := run(append(tc.args, "-out", path), io.Discard); err != nil {
				t.Fatalf("write: %v", err)
			}

			var reloaded bytes.Buffer
			if err := run([]string{"-in", path}, &reloaded); err != nil {
				t.Fatalf("reload: %v", err)
			}
			if direct.String() != reloaded.String() {
				t.Errorf("reloaded profile differs from generated profile:\n--- generated\n%s--- reloaded\n%s",
					direct.String(), reloaded.String())
			}

			fileBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Read(f)
			f.Close()
			if err != nil {
				t.Fatalf("trace.Read: %v", err)
			}
			var reenc bytes.Buffer
			if err := tr.Write(&reenc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fileBytes, reenc.Bytes()) {
				t.Errorf("re-encoded trace differs from file bytes (%d vs %d bytes)",
					len(reenc.Bytes()), len(fileBytes))
			}
		})
	}
}

// TestCapturedTraceReplayReproducesFaults: a tracegen-captured v2 trace,
// read back from disk, runs through hpe.Run reproducing the originating
// run's fault count — including the driver's per-tenant attribution.
func TestCapturedTraceReplayReproducesFaults(t *testing.T) {
	app, err := resolveApp("", "", "HSD,BFS", "", 512)
	if err != nil {
		t.Fatal(err)
	}
	tr := app.Generate()
	if !tr.Annotated() {
		t.Fatal("colocated trace should carry v2 annotations")
	}
	// The originating run simulates the in-memory trace; the captured run
	// below reads the written file, both through the same spec.
	spec := hpe.RunSpec{App: "trace:origin", Policy: "lru", Rate: 50}
	origin, err := hpe.Run(spec, hpe.WithRunEnv(hpe.RunEnv{
		ReadTrace: func(string) (*hpe.Trace, error) { return tr, nil },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if origin.Faults == 0 {
		t.Fatal("originating run produced no faults")
	}
	if len(origin.Driver.Tenants) != 2 {
		t.Fatalf("originating run: %d tenant rows, want 2", len(origin.Driver.Tenants))
	}

	path := filepath.Join(t.TempDir(), "colo.hpet")
	if err := writeTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	spec.App = "trace:" + path
	replayed, err := hpe.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Faults != origin.Faults {
		t.Fatalf("captured replay faults %d != originating %d", replayed.Faults, origin.Faults)
	}
	if !reflect.DeepEqual(replayed.Driver.Tenants, origin.Driver.Tenants) {
		t.Fatalf("captured replay tenants %+v != originating %+v", replayed.Driver.Tenants, origin.Driver.Tenants)
	}
}
