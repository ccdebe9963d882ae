package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	"hpe/internal/policy"
	"hpe/internal/runspec"
	"hpe/internal/server"
	"hpe/internal/tlb"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// minOps is the fewest ops a run pools: enough for ten beyond the p99.
const minOps = 100 * minBeyond

// untracedRun measures the end-to-end metrics: after a warm-up, passes
// repeat until the next would overrun the budget and at least minOps ops
// have been timed.
func untracedRun(rep *report, in *inputs, w string, seconds float64, setups []float64) error {
	if err := warmUp(in, w); err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	var passes []passResult
	var elapsed time.Duration
	ops := 0
	for {
		runtime.GC() // each pass starts from a collected heap
		t0 := time.Now()
		p, err := onePass(in, w)
		if err != nil {
			return err
		}
		elapsed += time.Since(t0)
		passes = append(passes, p)
		rep.tally(p)
		ops += len(p.lat)
		if elapsed+elapsed/time.Duration(len(passes)) > budget && ops >= minOps {
			break
		}
	}

	var walls, startups, rates, maccess []float64
	var lat []time.Duration
	var wall time.Duration
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		startups = append(startups, p.startup.Seconds())
		rates = append(rates, float64(len(p.lat))/p.wall.Seconds())
		maccess = append(maccess, float64(p.accesses)/1e6/p.wall.Seconds())
		lat = append(lat, p.lat...)
		wall += p.wall
	}
	ms := millis(lat)
	p50, p90, p99 := percentile(ms, 50), percentile(ms, 90), percentile(ms, 99)
	opName := "requests"
	if w == "sweep" || w == "sim" {
		opName = "simulations"
	}
	rep.note("passes: %d (%.3f s measured; walls %.3f s); ops are %s", len(passes), wall.Seconds(), walls, opName)
	rep.set("setup_s", median(setups)+median(startups), "s",
		fmt.Sprintf("median of %d set-ups (first, from process start: %.4f s) + median target start %.4f s",
			len(setups), setups[0], median(startups)))
	rep.set("wall_s", median(walls), "s", fmt.Sprintf("median of %d passes", len(passes)))
	rep.set("ops_per_s", median(rates), "1/s", fmt.Sprintf("median of %d passes; %d %s in all", len(passes), len(lat), opName))
	rep.set("op_p50_ms", p50.Value, "ms", p50.String())
	rep.set("op_p90_ms", p90.Value, "ms", p90.String())
	rep.set("op_p99_ms", p99.Value, "ms", p99.String())
	rep.set("sim_maccess_per_s", median(maccess), "M/s",
		fmt.Sprintf("median of %d passes; %d simulated accesses per pass", len(passes), passes[0].accesses))
	rep.set("success_ratio", 1-float64(rep.out.Failed)/float64(max(rep.out.Attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d ops correct (error_ratio = 1 - this)", rep.out.Attempted-rep.out.Failed, rep.out.Attempted))
	rep.set("peak_rss_mb", peakRSSMB(), "MiB", "getrusage maxrss")
	return nil
}

// Op-ID bases keep the ops of each traced phase distinct; the sweep's ops
// are its experiments, numbered from 0.
const (
	simOps     = 1_000
	tlbOps     = 5_000
	engineOp   = 9_000
	serveOps   = 100_000
	clusterOps = 200_000
)

// tracedRun is the traced run: a span-recording pass of every workload plus
// timing-free re-measurements of single layers, after one untraced pass of
// the named workload for the tracing overhead.
func tracedRun(rep *report, in *inputs, w string) (*tracer, error) {
	if err := warmUp(in, w); err != nil {
		return nil, err
	}
	runtime.GC()
	twin, err := onePass(in, w)
	if err != nil {
		return nil, err
	}
	rep.tally(twin)
	tr := newTracer()
	traced := map[string]time.Duration{}

	runtime.GC()
	sw := sweepPass(in, tr)
	rep.tally(sw)
	traced["sweep"] = sw.wall

	runtime.GC()
	sm, results := simTracedPass(in, tr)
	rep.tally(sm)
	traced["sim"] = sm.wall
	layers := simLayers(in, tr)
	rep.tally(layers.pass)

	runtime.GC()
	sv, err := loadPass(in, "serve", tr, serveOps, nil, true)
	if err != nil {
		return nil, err
	}
	rep.tally(sv)
	traced["serve"] = sv.wall
	svMetrics, err := scrape(sv.target.url)
	sv.target.close()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	tap := newBackendTap(tr, clusterBackends)
	cl, err := loadPass(in, "cluster", tr, clusterOps, tap, true)
	if err != nil {
		return nil, err
	}
	rep.tally(cl)
	traced["cluster"] = cl.wall
	clMetrics, err := scrape(cl.target.url)
	cl.target.close()
	tap.inflight.Wait()
	if err != nil {
		return nil, err
	}

	decodeAndEncode(in, tr, sv)
	eng := tr.begin("sim.engine", engineOp, -1)
	engineNs := engineNsPerEvent(2000)
	tr.end(eng)

	self := tr.selfByName()
	medMs := func(name string) float64 { return median(millis(self[name])) }
	sumNs := func(name string) float64 { return float64(sumDur(self[name]).Nanoseconds()) }

	// --- simulator layers (sim matrix)
	var tot gpu.Result
	var hpeStats struct{ searches, comparisons, switches, batches, drops uint64 }
	var hirHits, hirDrains uint64
	for _, r := range results {
		tot.Accesses += r.Accesses
		tot.Cycles += r.Cycles
		tot.Walks += r.Walks
		tot.WalkHits += r.WalkHits
		tot.WalkMerges += r.WalkMerges
		tot.Driver.FaultsServiced += r.Driver.FaultsServiced
		tot.Driver.Coalesced += r.Driver.Coalesced
		tot.Driver.Evictions += r.Driver.Evictions
		if r.HIR != nil {
			hirHits += r.HIR.HitsRecorded
			hirDrains += r.HIR.Drains
		}
		if h := r.HPE; h != nil {
			hpeStats.searches += h.Searches
			hpeStats.comparisons += h.Comparisons
			hpeStats.switches += uint64(h.Switches)
			hpeStats.batches += h.HitBatches
			hpeStats.drops += h.HitBatchDrops
		}
	}
	n := func(name string) string { return fmt.Sprintf("median of %d calls", len(self[name])) }
	rep.set("workload.generate_ms", medMs("workload.generate"), "ms", n("workload.generate"))
	rep.set("runspec.materialize_ms", medMs("runspec.materialize"), "ms", n("runspec.materialize")+", self time (trace from Env)")
	rep.set("trace.future_index_ms", medMs("trace.future_index"), "ms", n("trace.future_index"))
	rep.set("gpu.run_ms", medMs("gpu.run"), "ms", n("gpu.run")+", no probe attached")
	rep.set("gpu.ns_per_access", sumNs("gpu.run")/float64(tot.Accesses), "ns", fmt.Sprintf("over %d accesses", tot.Accesses))
	rep.set("gpu.ns_per_event", sumNs("gpu.run")/float64(layers.events), "ns", fmt.Sprintf("over %d probe events", layers.events))
	rep.set("tlb.lookup_ns", sumNs("tlb.replay")/float64(layers.l1.Den+layers.l2.Den), "ns",
		fmt.Sprintf("over %d lookups in %d traces", layers.l1.Den+layers.l2.Den, len(self["tlb.replay"])))
	rep.set("tlb.l1_hit_ratio", layers.l1.Value(), "ratio", layers.l1.String())
	rep.set("tlb.l2_hit_ratio", layers.l2.Value(), "ratio", layers.l2.String())
	rep.set("sim.engine_ns_per_event", engineNs, "ns", "1000-event handler shape, 2000 reps")
	for _, pol := range experiments.ComparisonPolicies {
		name := "policy.replay." + pol
		rep.set("policy.replay_ms."+pol, medMs(name), "ms", n(name))
		rep.set("policy.ns_per_ref."+pol, sumNs(name)/float64(layers.refs[pol]), "ns",
			fmt.Sprintf("over %d references", layers.refs[pol]))
	}
	cps := ratio{hpeStats.comparisons, hpeStats.searches, "comparisons", "MRU-C searches"}
	rep.set("hpe.comparisons_per_search", cps.Value(), "ratio", cps.String())
	rep.set("hpe.switches", float64(hpeStats.switches), "count", "strategy switches, hpe cells")
	rep.set("hpe.hit_batches", float64(hpeStats.batches), "count", "OnHitBatch calls, hpe cells")
	rep.set("hpe.hit_batch_drops", float64(hpeStats.drops), "count", "records dropped, hpe cells")
	for _, r := range sw.reports {
		if r.ID == "overhead" {
			rep.set("hpe.classify_us", r.Metrics["classifyUS"], "us", "sweep's overhead report (best of 5)")
			rep.set("hpe.update_us", r.Metrics["updateUS"], "us", "sweep's overhead report (best of 7)")
		}
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"gpu.accesses", tot.Accesses}, {"gpu.cycles", uint64(tot.Cycles)}, {"gpu.walks", tot.Walks},
		{"gpu.walk_hits", tot.WalkHits}, {"gpu.walk_merges", tot.WalkMerges},
		{"uvm.faults", tot.Driver.FaultsServiced}, {"uvm.coalesced", tot.Driver.Coalesced},
		{"uvm.evictions", tot.Driver.Evictions}, {"hir.hits", hirHits}, {"hir.drains", hirDrains},
		{"probe.events", layers.events},
	} {
		rep.set(c.name, float64(c.v), "count", fmt.Sprintf("exact, summed over %d sim cells", len(results)))
	}

	// --- experiment suite
	for _, id := range experiments.IDs() {
		if d := self["experiments."+id]; len(d) > 0 {
			rep.set("experiments."+id+"_s", d[0].Seconds(), "s", "Reports([id]) on the shared Suite")
		}
	}
	sims := len(sw.lat)
	rep.set("experiments.sims", float64(sims), "count", "Progress lines")
	rep.set("experiments.sims_per_s", float64(sims)/sw.wall.Seconds(), "1/s", fmt.Sprintf("over %.3f s", sw.wall.Seconds()))

	// --- serving
	for _, src := range []struct{ source, name string }{
		{"cache", "server.hit_ms"}, {"simulate", "server.simulate_ms"}, {"coalesce", "server.coalesce_ms"},
	} {
		ms := millis(bySource(sv.replies, src.source))
		p50, t := percentile(ms, 50), tail(ms)
		rep.set(src.name+".p50", p50.Value, "ms", p50.String())
		rep.set(src.name+".tail", t.Value, "ms", t.String())
	}
	hits, misses := uint64(svMetrics["hped_cache_hits_total"]), uint64(svMetrics["hped_cache_misses_total"])
	coalesced := uint64(svMetrics["hped_runs_coalesced_total"])
	hr := ratio{hits, hits + misses, "hits", "cache lookups"}
	cr := ratio{coalesced, misses, "coalesced", "cache misses"}
	rep.set("server.cache_hit_ratio", hr.Value(), "ratio", hr.String())
	rep.set("server.coalesce_ratio", cr.Value(), "ratio", cr.String())
	rep.set("server.rejected", svMetrics["hped_queue_rejected_total"], "count", "429s from the admission queue")
	rep.set("respcache.hits", float64(hits), "count", "final /metrics scrape")
	rep.set("respcache.misses", float64(misses), "count", "final /metrics scrape")
	rep.set("respcache.evictions", svMetrics["hped_cache_evictions_total"], "count", "final /metrics scrape")
	rep.set("respcache.bytes", svMetrics["hped_cache_bytes"], "bytes", "final /metrics scrape")
	rep.set("flight.coalesced", float64(coalesced), "count", "final /metrics scrape")
	rep.set("runspec.decode_us", medMs("runspec.decode")*1e3, "us", n("runspec.decode")+", Decode + ID")
	rep.set("server.encode_us", medMs("server.encode")*1e3, "us", n("server.encode")+", cold bodies")

	// --- cluster
	var overheadMs []float64
	for i, r := range cl.replies {
		if r.Source == "dispatch" {
			if bd, ok := tap.backendDur[clusterOps+int64(i)]; ok {
				overheadMs = append(overheadMs, float64((r.Latency-bd).Nanoseconds())/1e6)
			}
		}
	}
	var dispatches, lo, hi int64
	for b := range tap.dispatches {
		d := tap.dispatches[b].Load()
		dispatches += d
		if b == 0 || d < lo {
			lo = d
		}
		hi = max(hi, d)
	}
	rep.set("cluster.backend_ms", medMs("cluster.backend"), "ms", n("cluster.backend"))
	rep.set("cluster.overhead_ms", median(overheadMs), "ms",
		fmt.Sprintf("median over %d dispatched requests of client latency - backend time", len(overheadMs)))
	rep.set("cluster.dispatches", float64(dispatches), "count", "POST /v1/runs seen by the backends")
	rep.set("cluster.redispatches", clMetrics["hped_cluster_redispatched_total"], "count", "coordinator /metrics")
	rep.set("cluster.backend_balance", float64(hi)/float64(max(lo, 1)), "ratio",
		fmt.Sprintf("max/min dispatches per backend (%d/%d)", hi, lo))

	// --- tracing overhead: the traced pass of the named workload against
	// its untraced twin.
	u, t := twin.wall.Seconds(), traced[w].Seconds()
	rep.set("trace.overhead_pct", (t-u)/u*100, "%", fmt.Sprintf("%s pass: traced %.4f s vs untraced %.4f s", w, t, u))
	rep.note("the traced run is a fixed tour of all four workloads; --seconds does not apply")
	return tr, nil
}

// simTracedPass is the sim workload with hpe.Run opened up into its layer
// calls, each in a span: Materialize (whose Env hooks generate the trace and
// build the Belady index, as hpe.Run's zero Env would) and gpu.Run. It also
// returns each op's result. Like hpe.Run it keeps nothing between ops, so the
// heap, and with it the GC's pace, matches the untraced pass.
func simTracedPass(in *inputs, tr *tracer) (passResult, []gpu.Result) {
	res := passResult{}
	results := make([]gpu.Result, 0, len(in.matrix))
	start := time.Now()
	for i, sp := range in.matrix {
		op := simOps + int64(i)
		t0 := time.Now()
		opSpan := tr.begin("sim.op", op, -1)
		ms := tr.begin("runspec.materialize", op, opSpan)
		m, err := sp.Materialize(runspec.Env{
			Trace: func(app workload.App) *trace.Trace {
				g := tr.begin("workload.generate", op, ms)
				t := app.Generate()
				t.Footprint()
				tr.end(g)
				return t
			},
			Future: func(_ workload.App, t *trace.Trace) *trace.FutureIndex {
				f := tr.begin("trace.future_index", op, ms)
				fi := trace.BuildFutureIndex(t)
				tr.end(f)
				return fi
			},
		})
		tr.end(ms)
		var r gpu.Result
		if err == nil {
			g := tr.begin("gpu.run", op, opSpan)
			r = gpu.Run(m.Config, m.Trace, m.Policy)
			tr.end(g)
		}
		tr.end(opSpan)
		res.lat = append(res.lat, time.Since(t0))
		res.checkSim(in, sp, r, err)
		results = append(results, r)
	}
	res.wall = time.Since(start)
	return res, results
}

func traceKey(app workload.App) string { return fmt.Sprintf("%s/%d", app.Abbr, app.Sets) }

// layerStats are the single-layer re-measurements over the sim matrix.
type layerStats struct {
	pass   passResult
	events uint64         // probe events over every cell
	refs   map[string]int // references replayed, per policy
	l1, l2 ratio
}

// simLayers re-measures single layers over the sim matrix, generating each
// trace once: a probed gpu.Run per cell for the event count, a timing-free
// policy.Replay of a fresh policy instance per plain cell, and every trace
// through a standalone Table I TLB pair.
func simLayers(in *inputs, tr *tracer) layerStats {
	traces := map[string]*trace.Trace{}
	futures := map[string]*trace.FutureIndex{}
	env := runspec.Env{
		Trace: func(app workload.App) *trace.Trace {
			key := traceKey(app)
			if traces[key] == nil {
				traces[key] = app.Generate()
				traces[key].Footprint()
			}
			return traces[key]
		},
		Future: func(app workload.App, t *trace.Trace) *trace.FutureIndex {
			key := traceKey(app)
			if futures[key] == nil {
				futures[key] = trace.BuildFutureIndex(t)
			}
			return futures[key]
		},
	}
	ls := layerStats{refs: map[string]int{}}
	for i, sp := range in.matrix {
		op := simOps + int64(i)
		m, err := sp.Materialize(env)
		if err != nil {
			ls.pass.attempted++
			ls.pass.failed++
			ls.pass.notes = append(ls.pass.notes, fmt.Sprintf("%s: %v", sp.Slug(), err))
			continue
		}
		pm := hpe.NewMetricsProbe()
		s := tr.begin("gpu.run_probed", op, -1)
		r := gpu.Run(m.Config, m.Trace, m.Policy, gpu.WithProbe(pm))
		tr.end(s)
		if r.Probe != nil {
			ls.events += r.Probe.Events
		}
		if sp.App == "" || sp.Scale != 1 {
			continue
		}
		m, _ = sp.Materialize(env) // a fresh policy instance for the replay
		s = tr.begin("policy.replay."+sp.Policy, op, -1)
		policy.Replay(m.Trace, m.Policy, m.Capacity)
		tr.end(s)
		ls.refs[sp.Policy] += m.Trace.Len()
	}

	keys := make([]string, 0, len(traces))
	for k := range traces {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ls.l1 = ratio{What: "hits", Base: "L1 lookups"}
	ls.l2 = ratio{What: "hits", Base: "L2 lookups"}
	for i, k := range keys {
		l1, l2 := tlb.New("l1", 128, 128), tlb.New("l2", 512, 16)
		var l1Hits, l2Hits, l2Lookups uint64
		refs := traces[k].Refs
		s := tr.begin("tlb.replay", tlbOps+int64(i), -1)
		for _, p := range refs {
			if l1.Lookup(p) {
				l1Hits++
				continue
			}
			l2Lookups++
			if l2.Lookup(p) {
				l2Hits++
			} else {
				l2.Fill(p)
			}
			l1.Fill(p)
		}
		tr.end(s)
		ls.l1.Num += l1Hits
		ls.l1.Den += uint64(len(refs))
		ls.l2.Num += l2Hits
		ls.l2.Den += l2Lookups
	}
	return ls
}

// decodeAndEncode re-measures the serving layer's two codecs on the serve
// pass's traffic: Decode + ID of every wire body (cache hits pay it too), and
// json.Marshal of every cold RunResponse.
func decodeAndEncode(in *inputs, tr *tracer, sv passResult) {
	for i, r := range in.stream {
		s := tr.begin("runspec.decode", serveOps+int64(i), -1)
		sp, err := runspec.Decode(bytes.NewReader(r.Body))
		if err == nil {
			sp.ID()
		}
		tr.end(s)
	}
	for i, r := range sv.replies {
		if r.Source != "simulate" || r.Status != http.StatusOK {
			continue
		}
		var resp server.RunResponse
		if json.Unmarshal(r.Body, &resp) != nil {
			continue
		}
		s := tr.begin("server.encode", serveOps+int64(i), -1)
		json.Marshal(resp)
		tr.end(s)
	}
}

// bySource returns the latencies of the OK replies with the given
// X-Hped-Source.
func bySource(replies []reply, source string) []time.Duration {
	var out []time.Duration
	for _, r := range replies {
		if r.Status == http.StatusOK && r.Source == source {
			out = append(out, r.Latency)
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
