package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/runspec"
	"hpe/internal/sim"
)

// Workload sizes. A pass is one unit of fixed work; a run repeats passes
// until the next would overrun --seconds.
const (
	// streamLen is the requests of one serve/cluster pass: ≥1,000 so the
	// p99 has at least ten samples beyond it.
	streamLen = 4000
	// clusterBackends is the number of one-worker hpeds behind the
	// coordinator.
	clusterBackends = 2
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 9
)

// inputs is everything set-up generates from the seed.
type inputs struct {
	ex     *expected
	matrix []runspec.Spec // the sim matrix in seed order
	stream []request
}

func setup(seed uint64) (*inputs, error) {
	ex, err := loadExpected()
	if err != nil {
		return nil, err
	}
	matrix, err := simMatrix()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x51a))
	rng.Shuffle(len(matrix), func(i, j int) { matrix[i], matrix[j] = matrix[j], matrix[i] })
	universe, err := serveUniverse()
	if err != nil {
		return nil, err
	}
	stream, err := buildStream(seed, streamLen, universe)
	if err != nil {
		return nil, err
	}
	return &inputs{ex: ex, matrix: matrix, stream: stream}, nil
}

// passResult is one pass of a workload.
type passResult struct {
	wall      time.Duration // the timed work only
	startup   time.Duration // starting the pass's hped/coordinator, untimed
	lat       []time.Duration
	accesses  uint64 // simulated accesses
	attempted int
	failed    int
	notes     []string             // one line per failure
	replies   []reply              // serve/cluster
	target    *target              // serve/cluster, still open when keepOpen was set
	reports   []experiments.Report // sweep
}

// sweepPass runs the full experiment suite serially on a fresh Suite. Ops
// are simulations, timed between successive Progress lines. With a tracer it
// calls Reports once per experiment so each gets a span.
func sweepPass(in *inputs, tr *tracer) passResult {
	var res passResult
	last := time.Now()
	suite := experiments.NewSuite(experiments.Options{Seed: 1, Workers: 1,
		Progress: func(string) {
			now := time.Now()
			res.lat = append(res.lat, now.Sub(last))
			last = now
		}})
	ids := experiments.IDs()
	var reps []experiments.Report
	start := time.Now()
	last = start
	if tr != nil {
		// In canonical order on the one Suite, which keeps the reuse across
		// experiments.
		for i, id := range ids {
			sp := tr.begin("experiments."+id, int64(i), -1)
			r, err := suite.Reports([]string{id})
			tr.end(sp)
			if err != nil {
				res.notes = append(res.notes, err.Error())
				continue
			}
			reps = append(reps, r...)
		}
	} else {
		var err error
		if reps, err = suite.Reports(ids); err != nil {
			res.notes = append(res.notes, err.Error())
		}
	}
	res.wall = time.Since(start)
	res.attempted = len(ids)
	res.reports = reps
	for _, rep := range reps {
		if bad := in.ex.checkReport(rep); len(bad) > 0 {
			res.failed++
			res.notes = append(res.notes, bad...)
		}
	}
	res.failed += len(ids) - len(reps)
	if len(res.lat) != in.ex.fx.Sweep.Sims {
		res.notes = append(res.notes, fmt.Sprintf("sweep ran %d simulations, want %d", len(res.lat), in.ex.fx.Sweep.Sims))
		res.failed++
	}
	res.accesses = in.ex.fx.Sweep.Accesses
	return res
}

// simPass runs hpe.Run over the matrix with no shared caches: every op
// generates, materializes and simulates.
func simPass(in *inputs) passResult {
	res := passResult{lat: make([]time.Duration, 0, len(in.matrix))}
	start := time.Now()
	for _, sp := range in.matrix {
		t0 := time.Now()
		r, err := hpe.Run(sp)
		res.lat = append(res.lat, time.Since(t0))
		res.checkSim(in, sp, r, err)
	}
	res.wall = time.Since(start)
	return res
}

// checkSim counts one sim op and compares its statistics with the fixture.
func (res *passResult) checkSim(in *inputs, sp runspec.Spec, r hpe.Result, err error) {
	res.attempted++
	res.accesses += r.Accesses
	if err == nil {
		var got string
		if got, err = resultDigest(r); err == nil && got != in.ex.fx.Sim[sp.ID()] {
			err = fmt.Errorf("result digest %s, want %s", got, in.ex.fx.Sim[sp.ID()])
		}
	}
	if err != nil {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("%s: %v", sp.Slug(), err))
	}
}

// loadPass drives the stream against a fresh serve or cluster target.
// keepOpen leaves the target running so the caller can scrape /metrics.
func loadPass(in *inputs, workloadName string, tr *tracer, opBase int64, tap *backendTap, keepOpen bool) (passResult, error) {
	t0 := time.Now()
	var tg *target
	var err error
	if workloadName == "cluster" {
		tg, err = startCluster(clusterBackends, tap)
	} else {
		tg, err = startServe(runtime.NumCPU())
	}
	if err != nil {
		return passResult{}, err
	}
	res := passResult{startup: time.Since(t0)}
	var onSend func(i, span int)
	if tap != nil {
		onSend = func(i, span int) { tap.sent(in.stream[i].ID, opBase+int64(i), span) }
	}
	res.replies, res.wall = driveStream(tg.url, in.stream, clients(), tr, opBase, onSend)
	if keepOpen {
		res.target = tg
	} else {
		tg.close()
	}
	res.lat = make([]time.Duration, len(res.replies))
	for i, r := range res.replies {
		res.lat[i] = r.Latency
	}
	res.attempted = len(in.stream)
	res.failed, res.notes = checkReplies(in.stream, res.replies, in.ex.fx)
	res.accesses = streamAccesses(in.stream, in.ex.fx)
	return res, nil
}

// warmUp runs about a tenth of a pass, untimed and unchecked, before the
// first timed pass: a process's first pass ran up to 20% slower than its
// later ones on the development host.
func warmUp(in *inputs, workloadName string) error {
	switch workloadName {
	case "sweep":
		_, err := experiments.NewSuite(experiments.Options{Seed: 1, Workers: 1}).Reports([]string{"fig10"})
		return err
	case "sim":
		for _, sp := range in.matrix[:len(in.matrix)/10] {
			if _, err := hpe.Run(sp); err != nil {
				return err
			}
		}
		return nil
	default:
		short := *in
		short.stream = in.stream[:len(in.stream)/10]
		_, err := loadPass(&short, workloadName, nil, 0, nil, false)
		return err
	}
}

// clients is the closed loop's client count: one per CPU.
func clients() int { return runtime.NumCPU() }

// onePass runs one untraced pass of the named workload.
func onePass(in *inputs, workloadName string) (passResult, error) {
	switch workloadName {
	case "sweep":
		return sweepPass(in, nil), nil
	case "sim":
		return simPass(in), nil
	default:
		return loadPass(in, workloadName, nil, 0, nil, false)
	}
}

// engineNsPerEvent times the 1000-event handler shape of cmd/hpebench
// (events across 97 distinct cycles, scheduled up front and drained).
func engineNsPerEvent(iters int) float64 {
	h := &noop{}
	start := time.Now()
	for i := 0; i < iters; i++ {
		e := sim.NewEngine()
		hid := e.Register(h)
		for j := 0; j < 1000; j++ {
			e.Schedule(sim.Cycle(j%97), hid, uint64(j), 0)
		}
		e.Run()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters*1000)
}

type noop struct{ n int }

func (h *noop) OnEvent(a0, a1 uint64) { h.n++ }

// referenceNsPerEvent is the calibration: the retained container/heap
// reference engine on the same shape. No change to the program should move
// it, so a shift in it is host drift.
func referenceNsPerEvent(iters int) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		e := sim.NewReference()
		for j := 0; j < 1000; j++ {
			e.At(sim.Cycle(j%97), func() {})
		}
		e.Run()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters*1000)
}

// calibIters gives the calibration about 0.1 s on the development host.
const calibIters = 500

// peakRSSMB is the process's peak resident set in MiB (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
