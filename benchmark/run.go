package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runConfig is one invocation's settings, the same for every workload.
type runConfig struct {
	seed   uint64
	timed  time.Duration
	warmup time.Duration
	trace  bool
	// smoke shrinks every workload to a paper-scale archive, two set-ups
	// and 2 s phases so `go test` can run all four shapes in seconds.
	smoke  bool
	outDir string
	log    io.Writer
}

// Noise rules (see README): every latency and throughput metric is the
// median over this many equal slices of the timed phase.
const timedSlices = 10

// result is what one run of one workload reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	// metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	metrics map[string]float64
	// spreads is the slice IQR/median behind each slice-median metric.
	spreads   map[string]float64
	notes     []string
	tracePath string
}

func (r *result) note(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runWorkload generates w's inputs from the seed, measures set-up,
// boots the deployment, checks its answers, drives the closed loop and
// tears everything down.
func runWorkload(w *workload, cfg runConfig) (res *result, err error) {
	scale, setups := w.scale, w.setups
	if cfg.smoke {
		scale, setups = 1, 2
		cfg.timed, cfg.warmup = 2*time.Second, 500*time.Millisecond
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	ingestVideos := 0
	if w.ingestRate > 0 {
		ingestVideos = int((cfg.warmup+cfg.timed).Seconds()+2) * w.ingestRate
	}
	in, err := generateInputs(cfg.seed, scale, ingestVideos)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: seed %d, %dx archive (%d videos, %d shots), GOMAXPROCS %d\n",
		w.name, cfg.seed, scale, len(in.archive.Videos), in.shots, runtime.GOMAXPROCS(0))

	// Cold set-ups: everything from generated inputs to a first answered
	// query, built fresh each time.
	setupS := make([]float64, setups)
	for i := range setupS {
		runtime.GC()
		t0 := time.Now()
		d, err := bootCold(w, in, cfg.outDir)
		if err != nil {
			return nil, err
		}
		setupS[i] = time.Since(t0).Seconds()
		if err := d.teardown(); err != nil {
			return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
		}
	}

	// The deployment that is measured; its heap growth over the already
	// generated inputs is resident_mb.
	before := settledHeap()
	d, err := bootCold(w, in, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if terr := d.teardown(); terr != nil && err == nil {
			res, err = nil, fmt.Errorf("teardown: %w", terr)
		}
	}()
	residentMB := (float64(settledHeap()) - float64(before)) / 1e6

	ref, err := newReference(d.model)
	if err != nil {
		return nil, err
	}
	if err := gate(d, ref, in.schedule, scale == 1, w.ingestRate == 0); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: correctness gate passed, setup median %.4fs over %d cold set-ups\n",
		w.name, median(setupS), setups)

	res = &result{workload: w.name, correct: true, metrics: map[string]float64{}, spreads: map[string]float64{}}
	var tr *tracer
	var rp *replayer
	if cfg.trace {
		tr = newTracer()
		if rp, err = newReplayer(tr, w, in, d, ref); err != nil {
			return nil, err
		}
		defer rp.close()
	}

	var wr *writer
	if w.ingestRate > 0 {
		wr = startWriter(d.url, in.ingest, w.ingestRate)
	}
	q := &querier{d: d, sched: in.schedule}
	samples := make([]sample, 0, int(cfg.timed.Seconds()+1)*40000)
	warm := q.run(cfg.warmup, samples)
	warmP50, _, _ := sliceStats(warm.samples, int64(warm.dur), 1)
	if rp != nil {
		q.after = rp.after
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := q.run(cfg.timed, samples)
	runtime.ReadMemStats(&m1)
	res.attempted, res.failed = p.attempted, p.failed

	var acceptMS []float64
	if wr != nil {
		wr.halt()
		for _, op := range wr.ops {
			if op.at.Before(p.start) || !op.at.Before(p.start.Add(p.dur)) {
				continue
			}
			res.attempted++
			if op.ok {
				acceptMS = append(acceptMS, float64(op.lat)/1e6)
			} else {
				res.failed++
			}
		}
		if err := quiesce(d); err != nil {
			return nil, err
		}
		if err := gateAcked(d, wr.ops); err != nil {
			return nil, err
		}
	}
	if rp != nil && rp.err != nil {
		return nil, fmt.Errorf("replaying stages: %w", rp.err)
	}

	// The server's own counters: nothing may have been shed, degraded
	// or failed to compact behind a run that is reported as correct.
	stats, err := d.api.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	if stats.Runtime == nil {
		return nil, errors.New("/api/stats has no runtime section")
	}
	if n := stats.Runtime.Shed; n != 0 {
		res.note("server shed %d requests", n)
	}
	if c := stats.Coord; c != nil && c.DegradedQueries != 0 {
		res.note("coordinator degraded %d queries", c.DegradedQueries)
	}
	if ing := stats.Ingest; ing != nil && ing.CompactFailures != 0 {
		res.note("%d background compactions failed", ing.CompactFailures)
	}
	if res.failed != 0 {
		res.note("%d of %d operations failed", res.failed, res.attempted)
	}

	p50s, p95s, qpss := sliceStats(p.samples, int64(p.dur), timedSlices)
	if len(p50s) == 0 {
		return nil, errors.New("no correct response in the timed phase")
	}
	fmt.Fprintf(cfg.log, "%s: slice p50 us %.1f\n%s: slice p95 us %.1f\n", w.name, p50s, w.name, p95s)
	if !cfg.trace {
		m := res.metrics
		m["setup_s"] = median(setupS)
		m["query_p50_us"] = median(p50s)
		m["query_qps"] = median(qpss)
		m["query_p95_us"] = median(p95s)
		m["allocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / float64(p.attempted)
		m["resident_mb"] = residentMB
		res.spreads["setup_s"] = spread(setupS)
		res.spreads["query_p50_us"] = spread(p50s)
		res.spreads["query_qps"] = spread(qpss)
		res.spreads["query_p95_us"] = spread(p95s)
		return res, nil
	}

	if err := rp.probes(cfg.outDir); err != nil {
		return nil, err
	}
	m := rp.metrics()
	m["server.shed"] = float64(stats.Runtime.Shed)
	m["coalesce.hits"] = float64(stats.Runtime.CoalesceHits)
	if c := stats.Coord; c != nil {
		m["coord.retries"] = float64(c.Retries)
		m["coord.hedges_fired"] = float64(c.Hedges)
		m["coord.degraded_queries"] = float64(c.DegradedQueries)
		m["rpc.fleet_boot_ms"] = float64(d.fleetBoot) / 1e6
	}
	if ing := stats.Ingest; ing != nil {
		m["live.compactions"] = float64(ing.Compactions)
		m["live.compact_failures"] = float64(ing.CompactFailures)
		m["ingest.accept_p50_ms"] = median(acceptMS)
	}
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	m["server.http_roundtrip_p95_us"] = median(p95s)
	m["loadgen.slice_spread_p50"] = spread(p50s)
	m["loadgen.slice_spread_p95"] = spread(p95s)
	m["loadgen.slice_spread_qps"] = spread(qpss)
	if len(warmP50) == 1 && warmP50[0] > 0 {
		m["trace.overhead_ratio"] = m["server.http_roundtrip_us"] / warmP50[0]
	}
	res.metrics = m
	if res.tracePath, err = tr.write(cfg.outDir, w.name, cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}

// quiesce waits until no background compaction is running, so the temp
// dir can be removed without racing the snapshot writer.
func quiesce(d *deployment) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := d.api.HealthDetail(context.Background())
		if err != nil {
			return err
		}
		if h.Ingest == nil || !h.Ingest.Compacting {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("background compaction did not finish within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
