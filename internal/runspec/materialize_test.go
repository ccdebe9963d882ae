package runspec

import (
	"testing"

	"hpe/internal/gpu"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// TestMaterializeConfig pins the Spec → gpu.Config mapping: one knob, one
// spec dimension, materialized identically everywhere.
func TestMaterializeConfig(t *testing.T) {
	m, err := Spec{App: "HSD", Policy: "hpe", Rate: 75, Design: "pwc",
		Prefetch: 2, Channels: 4, DataPath: true, MaxCycles: 1 << 20,
		Tuning: Tuning{WalkLatency: 20}}.Materialize(Env{})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	cfg := m.Config
	if cfg.Translation != gpu.DesignPWC {
		t.Errorf("design pwc not materialized: %v", cfg.Translation)
	}
	if cfg.Driver.PrefetchPages != 2 || cfg.Driver.Channels != 4 {
		t.Errorf("driver knobs: prefetch=%d channels=%d", cfg.Driver.PrefetchPages, cfg.Driver.Channels)
	}
	if !cfg.ModelDataPath || cfg.MaxCycles != 1<<20 {
		t.Errorf("datapath=%v maxcycles=%d", cfg.ModelDataPath, cfg.MaxCycles)
	}
	if cfg.WalkLatency != 20 {
		t.Errorf("walk latency override lost: %d", cfg.WalkLatency)
	}
	if !cfg.UseHIR {
		t.Error("HPE run materialized without the HIR")
	}
	if m.Capacity != cfg.MemoryPages {
		t.Errorf("capacity %d disagrees with config memory %d", m.Capacity, cfg.MemoryPages)
	}
	want := CapacityFor(m.Trace, 75)
	if m.Capacity != want {
		t.Errorf("capacity %d, want %d (75%% of footprint)", m.Capacity, want)
	}
}

// TestMaterializeDefaultFoldEquivalence: a tuning value spelled at the paper
// default materializes the identical configuration as the plain run — the
// property the suite's variant-cell dedup relies on.
func TestMaterializeDefaultFoldEquivalence(t *testing.T) {
	env := Env{}
	plain, err := Spec{App: "KMN", Policy: "lru", Rate: 50}.Materialize(env)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	spelled, err := Spec{App: "KMN", Policy: "lru", Rate: 50,
		Tuning: Tuning{TransferInterval: 16, WalkLatency: 8, HIREntries: 1024}}.Materialize(env)
	if err != nil {
		t.Fatalf("spelled: %v", err)
	}
	if plain.Config != spelled.Config {
		t.Errorf("explicit defaults materialized a different config:\n %+v\n %+v",
			plain.Config, spelled.Config)
	}
}

// TestMaterializeEnvTraceShared: the env hook supplies the trace, so a caller
// cache is actually consulted (and the scaled app is what gets asked for).
func TestMaterializeEnvTraceShared(t *testing.T) {
	calls := 0
	var asked workload.App
	env := Env{Trace: func(app workload.App) *trace.Trace {
		calls++
		asked = app
		return app.Generate()
	}}
	m, err := Spec{App: "BFS", Policy: "lru", Rate: 50, Scale: 4}.Materialize(env)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if calls != 1 {
		t.Errorf("env.Trace called %d times, want 1", calls)
	}
	base, _ := workload.ByAbbr("BFS")
	if asked.Sets != base.Sets*4 {
		t.Errorf("env.Trace asked for %d sets, want the scaled %d", asked.Sets, base.Sets*4)
	}
	if m.Trace == nil || m.Policy == nil {
		t.Error("materialized run incomplete")
	}
}
