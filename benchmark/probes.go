package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/index"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/server"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// probeReps is how often a build-sized probe repeats; its metric is the
// median.
const probeReps = 3

// deltaVideos is the size of the harness-built delta: what the served
// delta holds just before a compaction folds it.
const deltaVideos = compactAfter

// newReplayer builds what the per-query replay needs beyond the
// reference engine, timing each construction as a probe: the in-process
// shard group and an rpc client to shard 0 on the fleet, a delta
// sub-model on the live workload.
func newReplayer(tr *tracer, w *workload, in *inputs, d *deployment, ref *reference) (*replayer, error) {
	rp := &replayer{tr: tr, ref: ref, d: d, in: in}
	if d.coordinator != nil {
		for i := 0; i < probeReps; i++ {
			err := tr.time(spShardSplit, func() (err error) {
				rp.group, err = shard.NewGroup(ref.model, fleetShards, engineOptions, shard.GroupOptions{})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", "shard.NewGroup", err)
			}
		}
		rp.rpcClient = rpc.NewClient(d.shardAddrs[0], 0, 1)
	}
	if d.pipeline != nil {
		if err := rp.liveProbes(); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (r *replayer) close() {
	if r.rpcClient != nil {
		r.rpcClient.Close()
	}
}

// liveProbes walks the ingest path's stages once per video for the first
// deltaVideos ingest payloads — segment, rebuild the delta, persist the
// journal — then rebuilds the model over the union as a compaction does.
// The last delta is kept for the per-query delta_retrieve probe.
func (r *replayer) liveProbes() error {
	tr, in := r.tr, r.in
	maxVideo, maxShot := videomodel.VideoID(0), videomodel.ShotID(0)
	for _, v := range in.archive.Videos {
		maxVideo = max(maxVideo, v.ID)
		for _, s := range v.Shots {
			maxShot = max(maxShot, s.ID)
		}
	}
	journal := filepath.Join(r.d.dir, "probe-ingest.log")
	var records []live.Record
	var delta *live.Delta
	for i := 0; i < deltaVideos && i < len(in.ingest); i++ {
		req := in.ingest[i]
		classes := make([]videomodel.Event, len(req.Events))
		for j, name := range req.Events {
			ev, err := videomodel.ParseEvent(name)
			if err != nil {
				return err
			}
			classes[j] = ev
		}
		raw := ingest.SynthesizeRaw(req.Seed, req.Name, classes, req.ShotMS)
		var res *ingest.Result
		err := tr.time(spIngestSegment, func() (err error) {
			res, err = r.d.pipeline.Segment(raw, maxVideo+1, maxShot+1)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", "ingest.Segment", err)
		}
		maxVideo++
		maxShot += videomodel.ShotID(len(res.Video.Shots))
		records = append(records, live.NewRecord(res, 0))
		err = tr.time(spDeltaBuild, func() (err error) {
			delta, err = live.NewDelta(records, r.ref.model.NumStates(), uint64(i+1), buildOptions, engineOptions)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", "live.NewDelta", err)
		}
		err = tr.time(spJournalPersist, func() error { return live.Persist(nil, journal, records) })
		if err != nil {
			return fmt.Errorf("%s: %w", "live.Persist", err)
		}
	}
	for i := 0; i < probeReps; i++ {
		err := tr.time(spCompactRebuild, func() error {
			union, feats, err := live.Union(in.archive, in.feats, records)
			if err != nil {
				return err
			}
			_, err = hmmm.Build(union, feats, buildOptions)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", "compaction rebuild", err)
		}
	}
	r.deltaEngine = delta.Engine
	return nil
}

// conceptSteps renders a compiled linear pattern (matn always emits
// Steps) as index.Candidates wants it: per step, the concept indices of
// its positive events.
func conceptSteps(q retrieval.Query) [][]int {
	out := make([][]int, len(q.Steps))
	for i, st := range q.Steps {
		for _, e := range st.Events {
			out[i] = append(out[i], e.Index())
		}
	}
	return out
}

// probes times the layers no query exercises — builds, the snapshot
// store, the coarse index — on this workload's own model and schedule.
// Run after the timed phase, with the deployment idle.
func (r *replayer) probes(outDir string) error {
	tr, model, in := r.tr, r.ref.model, r.in
	for i := 0; i < probeReps; i++ {
		if err := tr.time(spHMMMBuild, func() error {
			_, err := hmmm.Build(in.archive, in.feats, buildOptions)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", "hmmm.Build", err)
		}
		if err := tr.time(spEngineBuild, func() error {
			_, err := retrieval.NewEngine(model, engineOptions)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", "retrieval.NewEngine", err)
		}
		if err := tr.time(spServerNew, func() error {
			_, err := server.New(withDefaults(server.Config{}, model))
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", "server.New", err)
		}
	}
	before := settledHeap()
	engine, err := retrieval.NewEngine(model, engineOptions)
	if err != nil {
		return fmt.Errorf("%s: %w", "retrieval.NewEngine", err)
	}
	r.engineMB = (float64(settledHeap()) - float64(before)) / 1e6
	runtime.KeepAlive(engine)

	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	compact, dense := filepath.Join(dir, "model.compact"), filepath.Join(dir, "model.dense")
	load := func(path string) func() error {
		return func() error { _, err := store.LoadModel(path); return err }
	}
	for _, step := range []struct {
		name int
		fn   func() error
	}{
		{spStoreSaveCompact, func() error { return store.SaveModelCompact(compact, model) }},
		{spStoreLoadCompact, load(compact)},
		{spStoreSaveDense, func() error { return store.SaveModel(dense, model) }},
		{spStoreLoadDense, load(dense)},
	} {
		if err := tr.time(step.name, step.fn); err != nil {
			return fmt.Errorf("%s: %w", spanNames[step.name], err)
		}
	}
	fi, err := os.Stat(compact)
	if err != nil {
		return err
	}
	r.compactBytes = fi.Size()

	var coarse *index.Coarse
	for i := 0; i < probeReps; i++ {
		tr.time(spIndexBuild, func() error {
			coarse = index.Build(model, retrieval.DefaultSimEpsilon)
			return nil
		})
	}
	r.indexMB = float64(coarse.MemoryBytes()) / 1e6
	ctx := context.Background()
	for i := range in.schedule {
		e := &in.schedule[i]
		queries, err := matn.CompileStringDomain(e.pattern, r.ref.domain)
		if err != nil {
			return err
		}
		tr.time(spIndexCandidates, func() error {
			for _, q := range queries {
				coarse.Candidates(conceptSteps(q), 16, false)
			}
			return nil
		})
		var req api.QueryRequest
		if err := json.Unmarshal(e.body, &req); err != nil {
			return err
		}
		engine := r.ref.engine.WithOptions(requestOptions(&req))
		r.retrieveAllocs = append(r.retrieveAllocs, allocsPerRun(20, func() {
			retrieveAll(ctx, engine, queries)
		}))
	}
	return nil
}

// metrics turns the recorded spans and probe readings into the
// per-layer metrics.
func (r *replayer) metrics() map[string]float64 {
	self := r.tr.selfTimes()
	us := func(name int) float64 { return p50(self, name) }
	ms := func(name int) float64 { return p50(self, name) / 1e3 }
	m := map[string]float64{
		"server.http_roundtrip_us":      us(spRoundtrip),
		"server.shell_us":               median(r.tr.shellTimes()),
		"api.decode_us":                 us(spDecode),
		"api.encode_us":                 us(spEncode),
		"matn.compile_us":               us(spCompile),
		"coalesce.key_us":               us(spKey),
		"retrieval.estimate_us":         us(spEstimate),
		"retrieval.retrieve_us":         us(spRetrieve),
		"retrieval.merge_us":            us(spMerge),
		"retrieval.allocs_per_retrieve": median(r.retrieveAllocs),
		"shard.split_ms":                ms(spShardSplit),
		"shard.group_retrieve_us":       us(spGroupRetrieve),
		"coord.retrieve_us":             us(spCoordRetrieve),
		"rpc.roundtrip_us":              us(spRPCRoundtrip),
		"rpc.service_us":                us(spRPCService),
		"rpc.wire_us":                   us(spRPCRoundtrip) - us(spRPCService),
		"hmmm.build_ms":                 ms(spHMMMBuild),
		"hmmm.model_mb":                 float64(r.ref.model.Snapshot().MemoryBytes()) / 1e6,
		"retrieval.engine_build_ms":     ms(spEngineBuild),
		"retrieval.engine_mb":           r.engineMB,
		"server.new_ms":                 ms(spServerNew),
		"store.save_compact_ms":         ms(spStoreSaveCompact),
		"store.load_compact_ms":         ms(spStoreLoadCompact),
		"store.load_dense_ms":           ms(spStoreLoadDense),
		"store.compact_bytes_per_shot":  float64(r.compactBytes) / float64(r.in.shots),
		"index.build_ms":                ms(spIndexBuild),
		"index.mb":                      r.indexMB,
		"index.candidates_us":           us(spIndexCandidates),
		"ingest.segment_ms":             ms(spIngestSegment),
		"live.delta_build_ms":           ms(spDeltaBuild),
		"live.journal_persist_ms":       ms(spJournalPersist),
		"live.compact_rebuild_ms":       ms(spCompactRebuild),
		"live.delta_retrieve_us":        us(spDeltaRetrieve),
	}
	if rt := m["server.http_roundtrip_us"]; rt > 0 {
		m["server.shell_share"] = m["server.shell_us"] / rt
	}
	// Work per scheduled query, from the cost blocks the deployment
	// served at the gate, over exactly one cycle: these repeat exactly.
	var edges, sims, videos int
	for _, e := range r.in.schedule {
		edges += e.expect.cost.EdgeEvals
		sims += e.expect.cost.SimEvals
		videos += e.expect.cost.VideosSeen
	}
	n := float64(len(r.in.schedule))
	m["retrieval.edge_evals_per_query"] = float64(edges) / n
	m["retrieval.sim_evals_per_query"] = float64(sims) / n
	m["retrieval.videos_seen_per_query"] = float64(videos) / n
	return m
}
