package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"hpe/internal/server"
)

// List feeds GET /v1/runs every live backend's full enumeration, paged
// through the same public endpoint clients use; the handler set merges it
// with the coordinator's own cache and in-flight sweeps (merged sweeps live
// only here — backends see their shards, not the sweep). Reconciliation runs
// over the public API, no side channel, so any hped can join a cluster.
func (x *executor) List(ctx context.Context, keep func(server.RunListEntry)) error {
	c := (*Coordinator)(x)
	for _, name := range c.liveBackends() {
		if err := c.collectBackendList(ctx, name, keep); err != nil {
			return &server.Error{Status: http.StatusServiceUnavailable, Code: server.ErrBackendUnavailable,
				Msg: fmt.Sprintf("list %s: %v", name, err)}
		}
	}
	return nil
}

// collectBackendList pages through one backend's GET /v1/runs.
func (c *Coordinator) collectBackendList(ctx context.Context, name string, keep func(server.RunListEntry)) error {
	after := ""
	for {
		path := "/v1/runs?limit=" + strconv.Itoa(backendListPage)
		if after != "" {
			path += "&after=" + url.QueryEscape(after)
		}
		status, body, err := c.proxyGet(ctx, name, path)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		var page server.RunListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			return err
		}
		for _, e := range page.Runs {
			keep(e)
		}
		if !page.Truncated || len(page.Runs) == 0 {
			return nil
		}
		after = page.Runs[len(page.Runs)-1].ID
	}
}

// backendListPage is the page size used when reconciling a backend's
// enumeration.
const backendListPage = 5000
