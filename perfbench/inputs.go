package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"hpe/internal/experiments"
	"hpe/internal/runspec"
	"hpe/internal/workload"
)

// Every input is generated here, during set-up, from the workload seed.

// simMatrix is the sim workload's fixed spec matrix, canonical, in catalog
// order: every app under every comparison policy at both paper rates; every
// app at scale 4 (TLB and page-map state past host caches) under LRU and
// HPE; and every workload-v2 scenario preset (phase and tenant paths) under
// LRU and HPE.
func simMatrix() ([]runspec.Spec, error) {
	var specs []runspec.Spec
	apps := workload.Catalog()
	for _, app := range apps {
		for _, pol := range experiments.ComparisonPolicies {
			for _, rate := range experiments.Rates {
				specs = append(specs, runspec.Spec{App: app.Abbr, Policy: pol, Rate: rate})
			}
		}
	}
	for _, app := range apps {
		for _, pol := range []string{"lru", "hpe"} {
			specs = append(specs, runspec.Spec{App: app.Abbr, Policy: pol, Rate: 75, Scale: 4})
		}
	}
	for _, sc := range workload.Scenarios() {
		for _, pol := range []string{"lru", "hpe"} {
			specs = append(specs, runspec.Spec{Phases: sc.Phases, Tenants: sc.Tenants,
				Interleave: sc.Interleave, Policy: pol, Rate: 75})
		}
	}
	return canonical(specs)
}

// serveRates are the oversubscription rates of the request universe.
var serveRates = []int{50, 55, 60, 65, 70, 75, 80, 85, 90}

// serveUniverse is every spec a request stream may name: each catalog app
// under each comparison policy at each of serveRates (1,242 specs). A stream
// draws its new specs from a seeded permutation of it, so the expected-output
// fixture can hold the response body of every spec any seed can request.
func serveUniverse() ([]runspec.Spec, error) {
	var specs []runspec.Spec
	for _, app := range workload.Catalog() {
		for _, pol := range experiments.ComparisonPolicies {
			for _, rate := range serveRates {
				specs = append(specs, runspec.Spec{App: app.Abbr, Policy: pol, Rate: rate})
			}
		}
	}
	return canonical(specs)
}

func canonical(specs []runspec.Spec) ([]runspec.Spec, error) {
	for i, sp := range specs {
		c, err := sp.Canonicalize()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		specs[i] = c
	}
	return specs, nil
}

// Request classes of the stream. The class is the generator's intent; the
// server's X-Hped-Source header reports what actually happened (a repeat can
// still join an in-flight run, and the second half of a pair can arrive
// after the first finished).
const (
	classHit  = "hit"  // repeats a spec first requested at least hitLag requests earlier
	classNew  = "new"  // a spec not requested before: cold simulation
	classPair = "pair" // a new spec submitted twice back to back: coalescing
)

// Stream mix, in requests: 75% hits, 15% new, 10% pairs. One draw of a pair
// yields two requests, so per draw the weights are 75:15:5.
const (
	mixHit, mixNew, mixPairDraw = 75, 15, 5
	// hitLag keeps a repeat from naming a spec requested so recently that, with
	// two clients, it could still be running.
	hitLag = 3
)

// request is one POST /v1/runs of the stream.
type request struct {
	ID    string // the spec's content address
	Class string
	Body  []byte // the wire body a client sends
}

// wireSpec is the short form scripts send; the server canonicalizes it.
type wireSpec struct {
	App    string `json:"app"`
	Policy string `json:"policy"`
	Rate   int    `json:"rate"`
}

// buildStream makes n requests (n+1 if the last draw is a pair) from seed.
// The same seed gives the same stream; new specs are taken from a seeded
// permutation of universe without repetition.
func buildStream(seed uint64, n int, universe []runspec.Spec) ([]request, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	perm := rng.Perm(len(universe))
	type firstUse struct {
		req     request
		ordinal int // position of the first request naming the spec
	}
	var out []request
	var earlier []firstUse
	nextNew := 0
	fresh := func(class string) (request, error) {
		if nextNew == len(universe) {
			return request{}, fmt.Errorf("stream of %d requests exhausts the %d-spec universe", n, len(universe))
		}
		sp := universe[perm[nextNew]]
		nextNew++
		body, err := json.Marshal(wireSpec{App: sp.App, Policy: sp.Policy, Rate: sp.Rate})
		if err != nil {
			return request{}, err
		}
		return request{ID: sp.ID(), Class: class, Body: body}, nil
	}
	for len(out) < n {
		draw := rng.IntN(mixHit + mixNew + mixPairDraw)
		// Repeats may only name specs first requested hitLag or more requests ago.
		eligible := sort.Search(len(earlier), func(i int) bool {
			return earlier[i].ordinal > len(out)-hitLag
		})
		switch {
		case draw < mixHit && eligible > 0:
			r := earlier[rng.IntN(eligible)].req
			r.Class = classHit
			out = append(out, r)
		case draw < mixHit+mixNew: // includes a hit drawn before any spec is eligible
			r, err := fresh(classNew)
			if err != nil {
				return nil, err
			}
			earlier = append(earlier, firstUse{req: r, ordinal: len(out)})
			out = append(out, r)
		default:
			r, err := fresh(classPair)
			if err != nil {
				return nil, err
			}
			earlier = append(earlier, firstUse{req: r, ordinal: len(out)})
			out = append(out, r, r)
		}
	}
	return out, nil
}

// digest is a short content hash: the first 8 bytes of SHA-256, hex.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// identity is the work a result measured. Two results whose identities
// differ timed different work and are never compared.
type identity struct {
	Workload    string   `json:"workload"`
	Trace       bool     `json:"trace"`
	Seed        uint64   `json:"seed"`
	Clients     int      `json:"clients"`
	Experiments []string `json:"experiments"`
	SimSpecs    int      `json:"sim_specs"`
	SimSpecsSHA string   `json:"sim_specs_sha"` // over the sorted spec IDs
	Requests    int      `json:"stream_requests"`
	StreamSHA   string   `json:"stream_sha"` // over class and body, in order
}

func newIdentity(workloadName string, traced bool, seed uint64, clients int,
	matrix []runspec.Spec, stream []request) identity {
	ids := make([]string, len(matrix))
	for i, sp := range matrix {
		ids[i] = sp.ID()
	}
	sort.Strings(ids)
	var sb strings.Builder
	for _, r := range stream {
		sb.WriteString(r.Class)
		sb.WriteByte(' ')
		sb.Write(r.Body)
		sb.WriteByte('\n')
	}
	return identity{
		Workload: workloadName, Trace: traced, Seed: seed, Clients: clients,
		Experiments: experiments.IDs(),
		SimSpecs:    len(ids), SimSpecsSHA: digest([]byte(strings.Join(ids, "\n"))),
		Requests: len(stream), StreamSHA: digest([]byte(sb.String())),
	}
}
