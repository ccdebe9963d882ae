package runspec

import "flag"

// BindFlags registers the spec flags on fs with the paper defaults, bound
// straight to a Spec's fields, so every CLI parses the same vocabulary.
// Callers may register tool-specific flags on the same set. After fs.Parse
// the returned function hands the spec back, not yet canonicalized, so
// invalid values surface through Canonicalize's errors like every other
// input path. Setting -phases or -tenants supersedes the -app default: the
// spec carries exactly one workload source.
func BindFlags(fs *flag.FlagSet) func() Spec {
	var s Spec
	fs.StringVar(&s.App, "app", "HSD", "workload abbreviation (see -list)")
	fs.StringVar(&s.Policy, "policy", "hpe", "policy name, comma-separated for several (see -policies)")
	fs.IntVar(&s.Rate, "rate", 75, "oversubscription rate in percent (memory = rate% of footprint)")
	fs.Int64Var(&s.Seed, "seed", 1, "seed for randomised policies")
	fs.StringVar(&s.Design, "design", "l2tlb", "address translation design: l2tlb or pwc")
	fs.IntVar(&s.Prefetch, "prefetch", 0, "extra pages migrated per fault from the same 64-KB block")
	fs.IntVar(&s.Channels, "channels", 1, "parallel fault-service channels in the driver")
	fs.BoolVar(&s.DataPath, "datapath", false, "model the Table I data hierarchy (L1D/L2/GDDR5)")
	fs.StringVar(&s.HIR, "hir", "auto", "HIR cache: on, off, or auto (policy decides)")
	fs.IntVar(&s.Scale, "scale", 1, "footprint scale multiplier [1,64]")
	fs.Uint64Var(&s.MaxCycles, "max-cycles", 0, "abort a runaway simulation after this many cycles (0 = unlimited)")
	fs.StringVar(&s.Phases, "phases", "", "phase-schedule workload, e.g. HOT:32,HSD:96,HOT:32 (supersedes -app)")
	fs.StringVar(&s.Tenants, "tenants", "", "colocated tenant workload, e.g. HSD,BFS (supersedes -app)")
	fs.IntVar(&s.Interleave, "interleave", 0, "tenant scheduling quantum in references (0 = default 1024; requires -tenants)")
	return func() Spec {
		sp := s
		if sp.Phases != "" || sp.Tenants != "" {
			sp.App = ""
		}
		return sp
	}
}
