package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"hpe/internal/experiments"
)

// POST /v1/runs takes a runspec.Spec verbatim as its wire form — the server
// has no request type of its own. runspec.Decode rejects unknown fields and
// canonicalizes, and Spec.ID() is the run's cache key, so a run submitted
// over HTTP, built from hpesim flags, or enumerated by the experiment suite
// lands on the same content address. Only the suite sweep below keeps a
// server-local request shape (its identity spans experiment IDs, not runs).

// SuiteRequest is the wire form of POST /v1/suite: a whole-matrix sweep
// through the experiment harness. Workers is a scheduling hint and is
// excluded from the content address — the PR-1 determinism contract makes
// reports byte-identical at any worker count, so sweeps that differ only in
// parallelism share one cache entry.
type SuiteRequest struct {
	// IDs are the experiment IDs to run; empty means all of them.
	IDs []string `json:"ids"`
	// Quick restricts the sweep to the representative 10-app subset.
	Quick bool `json:"quick"`
	// Seed feeds randomised policies; 0 means the default seed 1.
	Seed int64 `json:"seed"`
	// Workers is a parallelism hint, capped by the server's configured
	// suite worker count. Not part of the request's identity.
	Workers int `json:"workers,omitempty"`
}

// normalizeSuite canonicalizes a suite request in place and returns its
// content-addressed ID. Every role normalizes with it, so a sweep submitted
// to a coordinator or straight to a backend lands on one ID.
func normalizeSuite(req *SuiteRequest) (string, error) {
	known := make(map[string]bool)
	for _, id := range experiments.IDs() {
		known[id] = true
	}
	if len(req.IDs) == 0 {
		req.IDs = experiments.IDs()
	}
	for i, id := range req.IDs {
		id = strings.TrimSpace(id)
		if !known[id] {
			return "", fmt.Errorf("unknown experiment %q", id)
		}
		req.IDs[i] = id
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	// The hint must not perturb the hash: hash a copy with Workers zeroed.
	hashed := *req
	hashed.Workers = 0
	hashed.IDs = req.IDs
	return contentID("suite", &hashed), nil
}

// contentID derives the deterministic content address of a canonicalized
// request: kind prefix + the first 16 bytes of the SHA-256 of its canonical
// JSON. Struct-field order makes the JSON — and therefore the ID — stable
// across servers and releases that share the request schema.
func contentID(kind string, req any) string {
	canon, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("server: canonical request not marshalable: %v", err))
	}
	sum := sha256.Sum256(canon)
	return kind + "-" + hex.EncodeToString(sum[:16])
}
