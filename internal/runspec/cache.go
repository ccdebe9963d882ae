package runspec

import (
	"hpe/internal/flight"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// Cache is the workload memo long-lived callers plug into Env: one trace per
// (app, scale) and one Belady future index per trace, each computed once
// across concurrent callers. Traces are immutable from construction, so any
// number of runs may share them. Its
// methods have the signatures of Env.Trace and Env.Future, so a caller wires
// whichever hooks it wants. The zero Cache is empty and ready to use.
type Cache struct {
	traces  flight.Memo[cacheKey, *trace.Trace]
	futures flight.Memo[cacheKey, *trace.FutureIndex]
}

// cacheKey identifies a workload: scaled variants of an app differ in Sets.
type cacheKey struct {
	abbr string
	sets int
}

func keyOf(app workload.App) cacheKey { return cacheKey{app.Abbr, app.Sets} }

// Trace returns the app's canonical trace, generated on first use.
func (c *Cache) Trace(app workload.App) *trace.Trace {
	tr, _ := c.traces.Do(keyOf(app), func() (*trace.Trace, bool) {
		return app.Generate(), true
	})
	return tr
}

// Future returns the Belady future index over tr, the app's trace, built on
// first use.
func (c *Cache) Future(app workload.App, tr *trace.Trace) *trace.FutureIndex {
	fi, _ := c.futures.Do(keyOf(app), func() (*trace.FutureIndex, bool) {
		return trace.BuildFutureIndex(tr), true
	})
	return fi
}
