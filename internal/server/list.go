package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"hpe/internal/runspec"
)

// GET /v1/runs — run enumeration. Lists every cached and in-flight
// computation ID with a short spec summary, in canonical (lexicographic) ID
// order, paginated with limit/after. A coordinator's executor adds every
// live backend's listing, read over this same endpoint instead of a side
// channel: the union of the listings is the cluster's run inventory.
//
// Summaries live in the result cache's and the coalescer's own entries, so
// the index holds exactly the ids the process can answer for — an evicted,
// failed, or rejected computation leaves nothing behind.

// RunListEntry is one enumerated computation.
type RunListEntry struct {
	// ID is the content address (run-v2-… or suite-…).
	ID string `json:"id"`
	// Status is "cached" or "running".
	Status string `json:"status"`
	// Kind is "run" or "suite".
	Kind string `json:"kind"`
	// Summary is a one-line human sketch of the request ("HSD hpe @75%");
	// empty when no layer that holds the entry recorded one (e.g. a body a
	// coordinator fetched by id from a backend).
	Summary string `json:"summary,omitempty"`
}

// RunListResponse is the GET /v1/runs body.
type RunListResponse struct {
	Runs []RunListEntry `json:"runs"`
	// Truncated reports that more entries exist past the last one returned;
	// pass after=<last id> to continue.
	Truncated bool `json:"truncated,omitempty"`
}

// listLimits bounds the page size.
const (
	defaultListLimit = 500
	maxListLimit     = 5000
)

// specSummary renders a run spec's one-line enumeration sketch.
func specSummary(sp runspec.Spec) string {
	src := sp.App
	switch {
	case sp.Phases != "":
		src = "phases:" + sp.Phases
	case sp.Tenants != "":
		src = "tenants:" + sp.Tenants
	}
	out := fmt.Sprintf("%s %s @%d%%", src, sp.Policy, sp.Rate)
	if v := sp.VariantLabel(); v != "" {
		out += " [" + v + "]"
	}
	return out
}

// parseListQuery extracts the limit/after pagination parameters.
func parseListQuery(r *http.Request) (limit int, after string, err error) {
	limit = defaultListLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 1 {
			return 0, "", fmt.Errorf("limit must be a positive integer, got %q", raw)
		}
		if limit > maxListLimit {
			limit = maxListLimit
		}
	}
	return limit, r.URL.Query().Get("after"), nil
}

// kindOfID classifies an ID by its content-address prefix.
func kindOfID(id string) string {
	if len(id) >= 6 && id[:6] == "suite-" {
		return "suite"
	}
	return "run"
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	const route = "run_list"
	limit, after, err := parseListQuery(r)
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, err.Error(), "")
		return
	}
	entries := make(map[string]RunListEntry)
	keep := func(e RunListEntry) {
		prev, ok := entries[e.ID]
		if !ok {
			entries[e.ID] = e
			return
		}
		// A cached entry wins over a running one (the bytes are final), and
		// any summary beats an empty one.
		if e.Status == "cached" {
			prev.Status = "cached"
		}
		if prev.Summary == "" {
			prev.Summary = e.Summary
		}
		entries[e.ID] = prev
	}
	for _, e := range s.co.Entries() {
		keep(RunListEntry{ID: e.ID, Status: "running", Kind: kindOfID(e.ID), Summary: e.Meta})
	}
	for _, e := range s.cache.Entries() {
		keep(RunListEntry{ID: e.ID, Status: "cached", Kind: kindOfID(e.ID), Summary: e.Meta})
	}
	if err := s.x.List(r.Context(), keep); err != nil {
		s.writeFailure(w, route, err)
		return
	}

	ids := make([]string, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := RunListResponse{}
	for _, id := range ids {
		if after != "" && id <= after {
			continue
		}
		if len(out.Runs) == limit {
			out.Truncated = true
			break
		}
		out.Runs = append(out.Runs, entries[id])
	}
	body, err := json.Marshal(out)
	if err != nil {
		s.writeError(w, route, http.StatusInternalServerError, ErrInternal, err.Error(), "")
		return
	}
	s.writeBody(w, route, http.StatusOK, "", append(body, '\n'))
}
