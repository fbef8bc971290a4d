package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/server"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/shotdetect"
)

// workload is one deployment shape plus the traffic driven at it.
type workload struct {
	name string
	why  string
	// scale is the archive's paper-scale factor (1 = 54 videos / 11,567
	// shots / 506 annotated).
	scale int
	// setups is the number of cold set-ups per run; setup_s is their
	// median. Sized so the set-up phase lasts about two seconds.
	setups int
	// ingestRate, when > 0, runs a second connection pacing POST
	// /api/ingest at this many videos per second beside the querier.
	ingestRate int
	boot       func(in *inputs, dir string) (*deployment, error)
}

const fleetShards = 2

var workloads = []*workload{
	{
		name: "paper_serial", scale: 1, setups: 1001, boot: bootSingle,
		why: "paper-scale archive, one engine, one closed-loop client: the HTTP/JSON/MATN shell outweighs retrieval; bypasses shard, coord, rpc, live",
	},
	{
		name: "archive_exact", scale: 100, setups: 11, boot: bootSingle,
		why: "100x archive, exact search, one client: retrieval is most of the round trip and set-up and memory are large; a shell gain predicts no change",
	},
	{
		name: "fleet_scatter", scale: 10, setups: 101, boot: bootFleet,
		why: "10x archive over 2 rpc shard servers behind a coordinator, one client: coord scatter, rpc wire and merge dominate; an engine gain predicts little change",
	},
	{
		name: "live_mixed", scale: 1, setups: 5, ingestRate: 8, boot: bootLive,
		why: "paper-scale base with live ingest: one querier beside a writer at 8 videos/s and background compactions; shows read-path against write-path trades",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Serving configuration: hmmmd's flag defaults.
var (
	engineOptions = retrieval.Options{Beam: 4, TopK: 10}
	buildOptions  = hmmm.BuildOptions{LearnP12: true}
)

const (
	queryTimeout = 10 * time.Second
	maxInflight  = 64
	fastLaneCost = 1000
	compactAfter = 8
)

// deployment is one booted serving shape behind a loopback HTTP
// listener, with handles on the parts the gate and the tracer call
// directly.
type deployment struct {
	model  *hmmm.Model
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	// api is the typed client over the same single connection, for the
	// calls whose raw bytes do not matter (stats, health, scoped checks).
	api *client.Client

	// Fleet parts (fleet_scatter only).
	coordinator *coord.Coordinator
	rpcServers  []*rpc.Server
	services    []*rpc.ShardService
	shardAddrs  []string
	// fleetBoot is how long listen + coord.Dial + WaitReady took.
	fleetBoot time.Duration

	// Live parts (live_mixed only).
	pipeline *ingest.Pipeline
	dir      string
}

// newClient returns an HTTP client that keeps exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// withDefaults fills cfg with the model and hmmmd's engine, admission
// and coalescing defaults.
func withDefaults(cfg server.Config, model *hmmm.Model) server.Config {
	cfg.Model = model
	cfg.Options = engineOptions
	cfg.QueryTimeout = queryTimeout
	cfg.MaxInflight = maxInflight
	cfg.Coalesce = true
	cfg.FastLaneCost = fastLaneCost
	return cfg
}

// serve finishes a boot: the server over cfg and a loopback listener.
func (d *deployment) serve(cfg server.Config) error {
	srv, err := server.New(withDefaults(cfg, d.model))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	go d.hs.Serve(ln)
	d.url = "http://" + ln.Addr().String()
	d.client = newClient()
	d.api = client.New(d.url, d.client)
	return nil
}

func bootSingle(in *inputs, _ string) (*deployment, error) {
	model, err := hmmm.Build(in.archive, in.feats, buildOptions)
	if err != nil {
		return nil, err
	}
	d := &deployment{model: model}
	return d, d.serve(server.Config{})
}

func bootFleet(in *inputs, _ string) (*deployment, error) {
	model, err := hmmm.Build(in.archive, in.feats, buildOptions)
	if err != nil {
		return nil, err
	}
	d := &deployment{model: model}
	shards, err := shard.Split(model, fleetShards)
	if err != nil {
		return d, err
	}
	if len(shards) != fleetShards {
		return d, fmt.Errorf("archive split into %d shards, want %d", len(shards), fleetShards)
	}
	for i, sh := range shards {
		svc, err := rpc.NewShardService(sh, i, fleetShards, engineOptions, 1)
		if err != nil {
			return d, err
		}
		d.services = append(d.services, svc)
	}
	fleetStart := time.Now()
	for _, svc := range d.services {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return d, err
		}
		rs := rpc.NewServer(svc, nil)
		go rs.Serve(ln)
		d.rpcServers = append(d.rpcServers, rs)
		d.shardAddrs = append(d.shardAddrs, ln.Addr().String())
	}
	reg := obs.NewRegistry()
	d.coordinator, err = coord.Dial(strings.Join(d.shardAddrs, ";"), 2*time.Second,
		coord.Options{Metrics: coord.NewMetrics(reg)}, engineOptions)
	if err != nil {
		return d, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = d.coordinator.WaitReady(ctx)
	cancel()
	if err != nil {
		return d, err
	}
	d.fleetBoot = time.Since(fleetStart)
	return d, d.serve(server.Config{Registry: reg, Coordinator: d.coordinator})
}

func bootLive(in *inputs, dir string) (*deployment, error) {
	model, err := hmmm.Build(in.archive, in.feats, buildOptions)
	if err != nil {
		return nil, err
	}
	d := &deployment{model: model}
	// The classifier and pipeline are hmmmd's (-ingest): fixed seed, not
	// an input, and part of what a live boot costs.
	tree, err := ingest.TrainClassifier(1, 12, mining.Config{})
	if err != nil {
		return d, err
	}
	d.pipeline, err = ingest.NewPipeline(shotdetect.DefaultConfig(), tree, 0.5)
	if err != nil {
		return d, err
	}
	return d, d.serve(server.Config{Live: &live.Config{
		LogPath:      filepath.Join(dir, "ingest.log"),
		SnapshotPath: filepath.Join(dir, "corpus.snapshot"),
		Archive:      in.archive,
		Features:     in.feats,
		Pipeline:     d.pipeline,
		Build:        buildOptions,
		CompactAfter: compactAfter,
	}})
}

// post sends body to url on client's one connection and reads the whole
// response into buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// bootCold boots w in a fresh temp dir under outDir and answers one
// query: "first query answerable" is where set-up ends.
func bootCold(w *workload, in *inputs, outDir string) (*deployment, error) {
	dir, err := os.MkdirTemp(outDir, "deploy-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	d, err := w.boot(in, dir)
	if d == nil {
		d = &deployment{}
	}
	d.dir = dir
	if err == nil {
		var buf bytes.Buffer
		var status int
		status, err = post(d.client, d.url+"/api/query", in.schedule[0].body, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("first query: status %d: %s", status, strings.TrimSpace(buf.String()))
		}
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("booting %s: %w", w.name, err), d.teardown())
	}
	return d, nil
}

// teardown stops everything boot started, waits for it, and removes the
// temp dir. Safe on a partially booted deployment.
func (d *deployment) teardown() error {
	var err error
	if d.srv != nil {
		err = d.srv.Shutdown(d.hs, 5*time.Second)
		d.client.CloseIdleConnections()
	}
	if d.coordinator != nil {
		d.coordinator.Close()
	}
	for _, rs := range d.rpcServers {
		rs.Close()
	}
	if d.dir != "" {
		err = errors.Join(err, os.RemoveAll(d.dir))
	}
	return err
}
