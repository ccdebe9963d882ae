// Package registry is the single name-keyed catalog of eviction policies.
// Every way of naming a policy — a runspec.Spec's Policy field, the
// facade's hpe.LookupPolicy, and the CLI tools' -policy flags — resolves
// here, so adding a policy means adding one Register call, not editing
// switch statements across the tree.
//
// A policy is built from its name plus one Options value describing the
// run (runspec.Spec.Materialize is the only caller). A builder reads the
// fields it understands; the ones it requires (CLOCK-Pro and ARC need
// Capacity, Ideal needs Future) produce an error when missing.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"hpe/internal/addrspace"
	"hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/trace"
)

// Options describes the run a policy is built for. Builders read the fields
// they understand and ignore the rest.
type Options struct {
	// Seed feeds randomised policies (Random).
	Seed int64
	// Capacity is the device-memory capacity in pages, required by the
	// capacity-aware policies (CLOCK-Pro, ARC).
	Capacity int
	// Future lazily supplies the Belady future index offline policies
	// (Ideal) replay. The callback runs only if the policy being built
	// needs the index, so callers pass it unconditionally without paying
	// for the build.
	Future func() *trace.FutureIndex
	// ThrashingRRIP selects the paper's Type-II RRIP setup (distant
	// insertion, delay threshold 128).
	ThrashingRRIP bool
	// HPE overrides the HPE configuration.
	HPE *hpe.Config
}

// Info describes a registered policy.
type Info struct {
	// Name is the canonical registry key ("clockpro").
	Name string
	// Display is the paper's rendering ("CLOCK-Pro"), used in reports.
	Display string
	// Description is a one-line summary for listings.
	Description string
	// Aliases are additional accepted names ("clock-pro").
	Aliases []string
	// NeedsCapacity, NeedsTrace: the policy errors without Options.Capacity
	// or Options.Future respectively.
	NeedsCapacity bool
	NeedsTrace    bool
	// NeedsHIR: the policy is driven by the HIR cache, so simulations must
	// attach one (gpu.Config.UseHIR).
	NeedsHIR bool
}

type entry struct {
	info  Info
	build func(Options) (policy.Policy, error)
}

// entries is in paper presentation order (Fig. 12 comparison set first, then
// the extra reference points); byName adds canonical names and aliases,
// lowercased.
var entries []entry
var byName = map[string]*entry{}

func register(info Info, build func(Options) (policy.Policy, error)) {
	entries = append(entries, entry{info: info, build: build})
	e := &entries[len(entries)-1]
	for _, n := range append([]string{info.Name}, info.Aliases...) {
		key := strings.ToLower(n)
		if _, dup := byName[key]; dup {
			panic("registry: duplicate policy name " + key)
		}
		byName[key] = e
	}
}

func lookup(name string) (*entry, error) {
	e, ok := byName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("registry: unknown policy %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return e, nil
}

// New builds a fresh policy instance by name (case-insensitive; aliases
// accepted). It errors on an unknown name or a missing required option.
func New(name string, o Options) (policy.Policy, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if e.info.NeedsCapacity && o.Capacity <= 0 {
		return nil, fmt.Errorf("registry: policy %q requires Options.Capacity", e.info.Name)
	}
	if e.info.NeedsTrace && o.Future == nil {
		return nil, fmt.Errorf("registry: policy %q requires Options.Future", e.info.Name)
	}
	return e.build(o)
}

// Names lists the canonical policy names in registration (paper) order.
func Names() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.info.Name
	}
	return out
}

// Lookup returns the Info for a name (canonical or alias).
func Lookup(name string) (Info, bool) {
	e, err := lookup(name)
	if err != nil {
		return Info{}, false
	}
	return e.info, true
}

// DisplayName returns the paper's rendering of the named policy ("clockpro"
// → "CLOCK-Pro"); unknown names render as themselves.
func DisplayName(name string) string {
	if info, ok := Lookup(name); ok {
		return info.Display
	}
	return name
}

// NeedsHIR reports whether the named policy requires the HIR cache.
func NeedsHIR(name string) bool {
	info, ok := Lookup(name)
	return ok && info.NeedsHIR
}

// Infos returns every registered policy's Info in registration order.
func Infos() []Info {
	out := make([]Info, len(entries))
	for i, e := range entries {
		out[i] = e.info
	}
	return out
}

// AllNames returns canonical names plus aliases, sorted — the full accepted
// vocabulary (for shell completion and tests).
func AllNames() []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	register(Info{
		Name: "lru", Display: "LRU",
		Description: "page-level least-recently-used under the ideal feed",
	}, func(o Options) (policy.Policy, error) { return policy.NewLRU(), nil })

	register(Info{
		Name: "random", Display: "Random",
		Description: "uniformly random resident page (deterministic seed)",
	}, func(o Options) (policy.Policy, error) { return policy.NewRandom(o.Seed), nil })

	register(Info{
		Name: "rrip", Display: "RRIP",
		Description: "the paper's enhanced RRIP-FP (delay field; Type-II preset for thrashing apps)",
	}, func(o Options) (policy.Policy, error) {
		if o.ThrashingRRIP {
			return policy.NewRRIP(policy.ThrashingRRIPConfig()), nil
		}
		return policy.NewRRIP(policy.DefaultRRIPConfig()), nil
	})

	register(Info{
		Name: "clockpro", Display: "CLOCK-Pro", Aliases: []string{"clock-pro"},
		Description:   "CLOCK-Pro with the paper's fixed cold target m_c = 128",
		NeedsCapacity: true,
	}, func(o Options) (policy.Policy, error) {
		return policy.NewClockPro(o.Capacity, policy.DefaultColdTarget), nil
	})

	register(Info{
		Name: "ideal", Display: "Ideal", Aliases: []string{"belady", "min"},
		Description: "offline Belady-MIN upper bound (needs the trace)",
		NeedsTrace:  true,
	}, func(o Options) (policy.Policy, error) { return policy.NewIdeal(o.Future()), nil })

	register(Info{
		Name: "hpe", Display: "HPE",
		Description: "the paper's hierarchical page eviction policy (HIR + dynamic adjustment)",
		NeedsHIR:    true,
	}, func(o Options) (policy.Policy, error) {
		cfg := hpe.DefaultConfig()
		if o.HPE != nil {
			cfg = *o.HPE
		}
		return hpe.New(cfg), nil
	})

	register(Info{
		Name: "fifo", Display: "FIFO",
		Description: "first-in first-out reference baseline",
	}, func(o Options) (policy.Policy, error) { return policy.NewFIFO(), nil })

	register(Info{
		Name: "lfu", Display: "LFU",
		Description: "least-frequently-used reference baseline",
	}, func(o Options) (policy.Policy, error) { return policy.NewLFU(), nil })

	register(Info{
		Name: "clock", Display: "CLOCK",
		Description: "classic CLOCK second-chance (related work)",
	}, func(o Options) (policy.Policy, error) { return policy.NewClock(), nil })

	register(Info{
		Name: "nru", Display: "NRU",
		Description: "not-recently-used (related work)",
	}, func(o Options) (policy.Policy, error) { return policy.NewNRU(), nil })

	register(Info{
		Name: "arc", Display: "ARC",
		Description:   "Adaptive Replacement Cache (related work)",
		NeedsCapacity: true,
	}, func(o Options) (policy.Policy, error) { return policy.NewARC(o.Capacity), nil })

	register(Info{
		Name: "setlru", Display: "SetLRU", Aliases: []string{"set-lru"},
		Description: "set-granularity LRU ablation (HPE's granularity, no classification)",
	}, func(o Options) (policy.Policy, error) {
		return policy.NewSetLRU(addrspace.DefaultGeometry()), nil
	})
}
