//go:build !go1.24

package runspec

// A Spec's ID hashes its canonical JSON, whose Tuning field relies on
// encoding/json's omitzero tag (spec.go). Toolchains before Go 1.24 ignore
// that tag and encode "tuning":{}, so every run would get a different ID
// from the goldens, hped's caches and the coordinator's ring. go.mod's go
// line cannot say 1.24 yet (ROADMAP item 7), so this file refuses to
// compile on those toolchains instead.
var _ = runspec_needs_go1_24_for_omitzero_in_spec_ids
