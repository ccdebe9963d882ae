package runspec

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzDecode fuzzes the wire decoder hped and the coordinator put in front
// of every POST /v1/runs body. Whatever Decode accepts must already be
// canonical — Canonicalize is idempotent on it — and must keep its content
// address through a JSON round trip, so a spec relayed between processes
// (client → coordinator → backend) can never drift onto another ID. The seed
// corpus is the spec goldens, each fixture's raw spec and canonical form,
// plus tuning values on both sides of the bounds Canonicalize enforces.
func FuzzDecode(f *testing.F) {
	raw, err := os.ReadFile(goldensPath)
	if err != nil {
		f.Fatal(err)
	}
	var goldens []specGolden
	if err := json.Unmarshal(raw, &goldens); err != nil {
		f.Fatal(err)
	}
	for _, g := range goldens {
		body, err := json.Marshal(g.Spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add([]byte(g.Canonical))
	}
	// Tuning values at and past the bounds the simulator can run.
	for _, tuning := range []string{
		`"hir_entries":12`, `"hir_entries":65536`, `"hir_entries":65544`,
		`"hpe_interval":4096`, `"hpe_interval":4097`,
		`"set_size_shift":5,"hpe_division_threshold":128`, `"set_size_shift":6`, `"set_size_shift":17`,
		`"hpe_division_threshold":1000`, `"prepopulate":true`,
		`"walk_latency":512`, `"walk_latency":513`, `"walk_latency":9223372036854775807`,
		`"transfer_interval":1024`, `"transfer_interval":1025`,
	} {
		f.Add([]byte(`{"app":"HSD","policy":"hpe","rate":75,"tuning":{` + tuning + `}}`))
	}
	for _, knob := range []string{`"channels":64`, `"channels":65`, `"prefetch_pages":15`, `"prefetch_pages":16`} {
		f.Add([]byte(`{"app":"HSD","policy":"lru","rate":75,` + knob + `}`))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := sp.Canonicalize()
		if err != nil {
			t.Fatalf("decoded spec fails Canonicalize: %v\n%+v", err, sp)
		}
		if again != sp {
			t.Fatalf("Canonicalize is not idempotent:\n once  %+v\n twice %+v", sp, again)
		}
		wire, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		re, err := Decode(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, wire)
		}
		if re.ID() != sp.ID() {
			t.Fatalf("ID drifted through re-encoding: %s -> %s\n%s", sp.ID(), re.ID(), wire)
		}
	})
}
