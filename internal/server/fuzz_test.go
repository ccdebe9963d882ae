package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hpe"
	"hpe/internal/runspec"
)

// FuzzSubmitRun fuzzes POST /v1/runs bodies through the handler set. Every
// answer must be a 200 or a 4xx error envelope with a vocabulary code: a
// body the server cannot run is the client's error, never a 5xx, which a
// coordinator would charge to the backend's circuit breaker. The seeds put
// each bounded knob at its bound and one past it, on quick apps at scale 1.
func FuzzSubmitRun(f *testing.F) {
	for _, body := range []string{
		`{"app":"HOT","policy":"lru","rate":75}`,
		`{"app":"HOT","policy":"lru","rate":75,"tuning":{"walk_latency":9223372036854775807}}`,
		`{"app":"HOT","policy":"lru","rate":75,"tuning":{"walk_latency":512}}`,
		`{"app":"HOT","policy":"lru","rate":75,"tuning":{"walk_latency":513}}`,
		`{"app":"HOT","policy":"hpe","rate":75,"tuning":{"transfer_interval":1024}}`,
		`{"app":"HOT","policy":"hpe","rate":75,"tuning":{"transfer_interval":1025}}`,
		`{"app":"HOT","policy":"lru","rate":75,"channels":64}`,
		`{"app":"HOT","policy":"lru","rate":75,"channels":65}`,
		`{"app":"HOT","policy":"lru","rate":75,"prefetch_pages":15}`,
		`{"app":"HOT","policy":"lru","rate":75,"prefetch_pages":16}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"hir_entries":65536}}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"hir_entries":65544}}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"hpe_interval":4096}}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"hpe_interval":4097}}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"set_size_shift":5,"hpe_division_threshold":128}}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"set_size_shift":6}}`,
		`{"app":"trace:runs/x.hpet","policy":"lru","rate":75}`,
		`{"phases":"HOT:16,HSD:32","policy":"lru","rate":75}`,
		`{"tenants":"HSD,HOT","interleave":512,"policy":"hpe","rate":75}`,
		`{"app":"HOT","policy":"lru","rate":75,"bogus":1}`,
		`{"app":"HOT"`,
		``,
	} {
		f.Add([]byte(body))
	}
	vocabulary := map[ErrorCode]bool{
		ErrBadSpec: true, ErrQueueFull: true, ErrDraining: true, ErrNotFound: true,
		ErrBackendUnavailable: true, ErrCancelled: true, ErrClientGone: true, ErrInternal: true,
	}
	srv := New(Config{Workers: 1})
	f.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		// Keep each exec fast while exploring: a valid spec past scale 1
		// is a long simulation, not a different path through the handler.
		if sp, err := runspec.Decode(bytes.NewReader(body)); err == nil && sp.Scale > 1 {
			t.Skip("long simulation")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
		case code >= 400 && code < 500:
			eb, ok := DecodeError(rec.Body.Bytes())
			if !ok || !vocabulary[eb.Code] {
				t.Fatalf("status %d with a body that is no vocabulary envelope: %s", code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for %q: %s", code, body, rec.Body.Bytes())
		}
	})
}

// failingSweeps is an Executor whose sweep runner fails every cell, so a
// fuzzed suite body never simulates: an experiment with cells answers 500
// internal, and one without (table1's static configuration) renders for
// real.
type failingSweeps struct{ Executor }

var errStubCell = errors.New("stub runner: no simulation under fuzzing")

func (failingSweeps) Sweep(string, int) (func(context.Context, runspec.Spec, string) (hpe.Result, error), int) {
	return func(context.Context, runspec.Spec, string) (hpe.Result, error) { return hpe.Result{}, errStubCell }, 1
}

// FuzzSubmitSuite fuzzes POST /v1/suite bodies through the handler set.
// Every answer must be a 2xx or an error envelope with a vocabulary code.
// The seeds cover malformed JSON, unknown fields, unknown and duplicate
// experiment IDs, a negative worker hint and a body past the 1 MiB limit.
func FuzzSubmitSuite(f *testing.F) {
	for _, body := range []string{
		`{"ids":["table1"]}`,
		`{"ids":["table1","table2"],"quick":true,"seed":7}`,
		`{"ids":["fig10"],"quick":true}`,
		`{"ids":["table1","table1"]}`,
		`{"ids":["nope"]}`,
		`{"ids":[" table1 "],"workers":-3}`,
		`{"ids":[],"workers":2}`,
		`{"ids":["table1"],"bogus":1}`,
		`{"ids":"table1"}`,
		`{"ids":["table1"]`,
		`[]`,
		``,
		`{"ids":["` + strings.Repeat("x", 1<<20) + `"]}`,
	} {
		f.Add([]byte(body))
	}
	vocabulary := map[ErrorCode]bool{
		ErrBadSpec: true, ErrQueueFull: true, ErrDraining: true, ErrNotFound: true,
		ErrBackendUnavailable: true, ErrCancelled: true, ErrClientGone: true, ErrInternal: true,
	}
	base := New(Config{Workers: 1})
	f.Cleanup(func() { base.Close() })
	srv := Mount(failingSweeps{base.x}, Surface{Name: "server", Source: "simulate"})
	f.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/suite", bytes.NewReader(body)))
		if code := rec.Code; code < 200 || code >= 300 {
			eb, ok := DecodeError(rec.Body.Bytes())
			if !ok || !vocabulary[eb.Code] {
				t.Fatalf("status %d with a body that is no vocabulary envelope: %.200s", code, rec.Body.Bytes())
			}
		}
	})
}
