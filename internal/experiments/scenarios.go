package experiments

import (
	"fmt"

	"hpe/internal/runspec"
	"hpe/internal/stats"
	"hpe/internal/workload"
)

// Workload-v2 extension experiments: temporal phase schedules and
// multi-tenant colocation. Both build plain runspec.Specs — the scenario
// fields flow through the same canonicalize/materialize path as every other
// run — so the cells cache and delegate like any catalog cell.

// temporalSchedules are the phase schedules of the "temporal" study. They
// are deliberately small siblings of the named presets (workload.Scenarios):
// same shapes, reduced footprints, so the study stays cheap.
var temporalSchedules = []struct{ name, phases string }{
	{"diurnal", "HOT:16,HOT:32,HOT:48,HOT:32,HOT:16"},
	{"burst", "PAT:24,HSD:48,PAT:24"},
	{"regrow", "STN:32,STN:8,STN:32"},
}

// temporalPolicies are the policies the scenario studies compare: the
// baseline, the strongest classical contender, and the paper's policy.
var temporalPolicies = []string{"lru", "clockpro", "hpe"}

// phased and colocated build the scenario studies' cells at 75%
// oversubscription: a phase schedule, or two tenants at an interleave
// quantum (0 means the default).
func (s *Suite) phased(phases, policy string) runspec.Spec {
	return runspec.Spec{Phases: phases, Policy: policy, Rate: 75, Seed: s.opts.Seed + 1}
}

func (s *Suite) colocated(policy string, interleave int) runspec.Spec {
	return runspec.Spec{Tenants: "HSD,BFS", Interleave: interleave, Policy: policy, Rate: 75, Seed: s.opts.Seed + 1}
}

// interleaves are the colocation study's HPE interleave quanta.
var interleaves = []int{256, workload.DefaultInterleave, 4096}

func temporalPlan(s *Suite) (out []runspec.Spec) {
	for _, sched := range temporalSchedules {
		for _, pol := range temporalPolicies {
			out = append(out, s.phased(sched.phases, pol))
		}
	}
	return out
}

func colocationPlan(s *Suite) (out []runspec.Spec) {
	for _, pol := range temporalPolicies {
		out = append(out, s.colocated(pol, 0))
	}
	for _, iv := range interleaves {
		out = append(out, s.colocated("hpe", iv))
	}
	return out
}

// temporal measures how the policies weather phase changes: each schedule
// switches the access pattern mid-run, so a policy's learned state is
// either an asset or a liability at the boundary. Evictions are normalised
// to LRU per schedule.
func temporal(s *Suite, res view) Report {
	header := []string{"schedule", "LRU"}
	for _, p := range temporalPolicies[1:] {
		header = append(header, display(p))
	}
	tb := stats.NewTable(header...)
	metrics := map[string]float64{}
	for _, sched := range temporalSchedules {
		lru := res.Spec(s.phased(sched.phases, "lru"))
		row := []any{sched.name}
		for _, pol := range temporalPolicies {
			r := res.Spec(s.phased(sched.phases, pol))
			norm := normalise(r.Evictions, lru.Evictions)
			metrics[fmt.Sprintf("%s/%s", sched.name, display(pol))] = norm
			if pol != "lru" {
				row = append(row, norm)
			} else {
				row = append(row, 1.0)
			}
		}
		tb.AddRowf(row...)
	}
	text := tb.Render() +
		"\nevictions vs LRU per schedule; each schedule re-seeds its pattern at every\n" +
		"phase boundary, so policies that classify (HPE) or track reuse epochs\n" +
		"(CLOCK-Pro) must re-learn while the stale state still votes on victims.\n"
	return Report{ID: "temporal", Title: "Temporal phase-schedule study (workload v2)", Text: text, Metrics: metrics}
}

// colocation measures two-tenant contention: tenants "HSD,BFS" interleaved
// at the default quantum, with per-tenant fault/eviction attribution from
// the driver. CrossEvictions — evictions of one tenant's page triggered by
// the other tenant's fault — is the headline contention signal.
func colocation(s *Suite, res view) Report {
	tb := stats.NewTable("policy", "tenant", "faults", "evictions", "cross", "cross share")
	metrics := map[string]float64{}
	for _, pol := range temporalPolicies {
		r := res.Spec(s.colocated(pol, 0))
		for _, ts := range r.Driver.Tenants {
			share := 0.0
			if ts.Evictions > 0 {
				share = float64(ts.CrossEvictions) / float64(ts.Evictions)
			}
			metrics[fmt.Sprintf("%s/%s/cross", display(pol), ts.Name)] = float64(ts.CrossEvictions)
			metrics[fmt.Sprintf("%s/%s/faults", display(pol), ts.Name)] = float64(ts.Faults)
			tb.AddRowf(display(pol), ts.Name, ts.Faults, ts.Evictions, ts.CrossEvictions,
				fmt.Sprintf("%.0f%%", share*100))
		}
	}
	// Interleave sensitivity: a finer quantum mixes the tenants' reuse
	// windows more tightly, raising cross-tenant pressure for the same pages.
	tb2 := stats.NewTable("interleave", "evictions", "cross (both tenants)")
	for _, iv := range interleaves {
		r := res.Spec(s.colocated("hpe", iv))
		var cross uint64
		for _, ts := range r.Driver.Tenants {
			cross += ts.CrossEvictions
		}
		metrics[fmt.Sprintf("iv%d/cross", iv)] = float64(cross)
		tb2.AddRowf(iv, r.Evictions, cross)
	}
	text := tb.Render() + "\nHPE interleave sensitivity:\n" + tb2.Render() +
		"\nevictions are charged to the victim's owner; \"cross\" counts those whose\n" +
		"triggering fault came from the other tenant. The thrashing tenant (HSD)\n" +
		"exports pressure onto the frontier tenant's working set.\n"
	return Report{ID: "colocation", Title: "Multi-tenant colocation study (workload v2)", Text: text, Metrics: metrics}
}
