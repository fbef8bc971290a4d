package boot

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/server"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// soccer and basketball are test-size archives: a few hundred shots.
var (
	soccer     = Archive{Seed: 31, Videos: 5, Shots: 200, Annotated: 50}
	basketball = Archive{Seed: 5, Videos: 6, Shots: 300, Annotated: 120, Domain: "basketball"}
)

func build(t *testing.T, a Archive, resume string) *Built {
	t.Helper()
	b, err := a.Build(resume)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return b
}

// saveModel writes a's model to a snapshot and returns its path.
func saveModel(t *testing.T, a Archive) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.hmmm")
	if err := store.SaveModel(path, build(t, a, "").Model); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestModeRules boots each row the way hmmmd and hmmm-shardd do —
// Validate, Build, then Live under -ingest and ShardService under -of —
// and checks which step refuses it.
func TestModeRules(t *testing.T) {
	soccerModel := saveModel(t, soccer)
	missing := filepath.Join(t.TempDir(), "corpus.snapshot")
	withModel := func(a Archive, domain string) Archive {
		a.Model, a.Domain = soccerModel, domain
		return a
	}
	for _, tc := range []struct {
		name   string
		a      Archive
		m      Modes
		resume string
		want   string // substring of the refusal; empty = served
		is     error
	}{
		{name: "generated", a: soccer},
		{name: "generated basketball", a: basketball, m: Modes{Shards: 2}},
		{name: "coord", a: soccer, m: Modes{Coord: "127.0.0.1:8090"}},
		{name: "ingest, first boot", a: soccer, m: Modes{Ingest: true}, resume: missing},
		{name: "shard 1 of 2", a: soccer, m: Modes{ShardServer: true, Shard: 1, Of: 2}},
		{name: "model, own stamp", a: withModel(soccer, "")},
		{name: "model, matching domain", a: withModel(soccer, "soccer")},
		{name: "unknown domain", a: Archive{Domain: "curling"}, want: `unknown domain "curling"`},
		{name: "coord with shards", a: soccer, m: Modes{Coord: "127.0.0.1:8090", Shards: 2},
			want: "-coord and -shards are mutually exclusive"},
		{name: "ingest with coord", a: soccer, m: Modes{Ingest: true, Coord: "127.0.0.1:8090"},
			want: "-ingest and -coord are mutually exclusive"},
		{name: "ingest outside soccer", a: basketball, m: Modes{Ingest: true},
			want: "-ingest requires the soccer domain"},
		{name: "ingest with model, no snapshot flag", a: withModel(soccer, ""), m: Modes{Ingest: true},
			want: "live ingest needs the soccer corpus"},
		{name: "ingest with model, no resumable snapshot", a: withModel(soccer, ""), m: Modes{Ingest: true},
			resume: missing, want: "live ingest needs the soccer corpus"},
		{name: "model stamped with another domain", a: withModel(soccer, "news"), is: store.ErrDomainMismatch},
		{name: "shardd defaults", a: soccer, m: Modes{ShardServer: true, Shard: -1}, want: "need -shard in [0, of)"},
		{name: "shard without of", a: soccer, m: Modes{ShardServer: true}, want: "need -shard in [0, of)"},
		{name: "shard past of", a: soccer, m: Modes{ShardServer: true, Shard: 2, Of: 2}, want: "need -shard in [0, of)"},
		{name: "split short of of", a: soccer, m: Modes{ShardServer: true, Shard: 0, Of: 500},
			want: "not the requested 500; lower -of on every process"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := func() error {
				if err := tc.m.Validate(tc.a); err != nil {
					return err
				}
				b, err := tc.a.Build(tc.resume)
				if err != nil {
					return err
				}
				if tc.m.Ingest {
					if _, err := b.Live(); err != nil {
						return err
					}
				}
				if tc.m.ShardServer {
					if _, err := ShardService(b.Model, tc.m.Shard, tc.m.Of, Options(0), 1); err != nil {
						return err
					}
				}
				return nil
			}()
			switch {
			case tc.is != nil:
				if !errors.Is(err, tc.is) {
					t.Fatalf("err = %v, want %v", err, tc.is)
				}
			case tc.want == "":
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
			case err == nil || !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestResume drives Build's -ingest-snapshot rung: no snapshot at all is
// a first boot, a snapshot resumes (through its recovery chain), and a
// chain of corrupt candidates fails instead of booting a fresh corpus.
func TestResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snapshot")

	fresh := build(t, soccer, path)
	if fresh.Corpus == nil || !strings.HasPrefix(fresh.Origin, "generated soccer corpus") {
		t.Fatalf("first boot: corpus %v, origin %q", fresh.Corpus != nil, fresh.Origin)
	}

	if err := store.SaveCorpus(path, fresh.Corpus); err != nil {
		t.Fatal(err)
	}
	// A resume ignores -model and the generation flags.
	resumed := build(t, Archive{Model: filepath.Join(dir, "absent.hmmm")}, path)
	if !strings.HasPrefix(resumed.Origin, "resumed compacted corpus from "+path+" in ") ||
		!strings.HasSuffix(resumed.Origin, fmt.Sprintf(": %d states across %d videos", fresh.Model.NumStates(), fresh.Model.NumVideos())) {
		t.Fatalf("resume origin %q", resumed.Origin)
	}
	if _, err := resumed.Live(); err != nil {
		t.Fatalf("resumed corpus refused ingest: %v", err)
	}

	// A torn snapshot recovers from its .bak, and says so.
	if err := os.Rename(path, atomicwrite.BakPath(path)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := build(t, soccer, path)
	if want := "resumed compacted corpus from " + atomicwrite.BakPath(path) + " (WARNING: " + path + " unreadable) in "; !strings.HasPrefix(recovered.Origin, want) {
		t.Fatalf("origin %q, want prefix %q", recovered.Origin, want)
	}

	for _, p := range atomicwrite.RecoveryCandidates(path) {
		if err := os.WriteFile(p, []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := soccer.Build(path); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Fatalf("all-corrupt chain: built %v, err = %v, want ErrCorrupt", b != nil, err)
	}
}

func TestRegisterFlags(t *testing.T) {
	var a Archive
	fs := flag.NewFlagSet("boot", flag.ContinueOnError)
	a.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := (Archive{Seed: 1, Videos: 54, Shots: 11567, Annotated: 506}); a != want {
		t.Fatalf("defaults %+v, want %+v", a, want)
	}
	if err := fs.Parse([]string{"-domain", "news", "-model", "m.hmmm", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if a.Domain != "news" || a.Model != "m.hmmm" || a.Seed != 3 {
		t.Fatalf("parsed %+v", a)
	}
}

func TestLoadModel(t *testing.T) {
	path := saveModel(t, basketball)
	b := build(t, Archive{Model: path}, "")
	if b.Corpus != nil || b.Model.DomainName() != "basketball" {
		t.Fatalf("loaded: corpus %v, domain %s", b.Corpus != nil, b.Model.DomainName())
	}
	if !strings.HasPrefix(b.Origin, "loaded model from "+path+" (basketball domain): ") {
		t.Fatalf("origin %q", b.Origin)
	}
	if _, err := (Archive{Model: filepath.Join(t.TempDir(), "absent")}).Build(""); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent model: err = %v", err)
	}

	// -domain gates -model in both snapshot formats, and a legacy
	// snapshot without a stamp is a soccer model.
	compact := filepath.Join(t.TempDir(), "compact.hmmm")
	if err := store.SaveModelCompact(compact, b.Model); err != nil {
		t.Fatal(err)
	}
	legacy := build(t, soccer, "").Model
	legacy.Domain = ""
	legacyPath := filepath.Join(t.TempDir(), "legacy.hmmm")
	if err := store.SaveModel(legacyPath, legacy); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, domain string
		ok           bool
	}{
		{path, "basketball", true},
		{path, "soccer", false},
		{compact, "basketball", true},
		{compact, "news", false},
		{legacyPath, "", true},
		{legacyPath, "soccer", true},
		{legacyPath, "news", false},
	} {
		_, err := (Archive{Model: tc.path, Domain: tc.domain}).Build("")
		if tc.ok && err != nil {
			t.Errorf("%s as %q: %v", tc.path, tc.domain, err)
		}
		if !tc.ok && !errors.Is(err, store.ErrDomainMismatch) {
			t.Errorf("%s as %q: err = %v, want ErrDomainMismatch", tc.path, tc.domain, err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	for _, a := range []Archive{
		{Videos: 0, Shots: 10, Annotated: 5},                    // dataset refuses
		{Videos: 0, Shots: 10, Annotated: 5, Domain: "news"},    // synthvideo refuses
		{Videos: 2, Shots: 20, Annotated: 0, Domain: "news"},    // no annotated shot to model
		{Videos: 2, Shots: 20, Annotated: 0, Domain: "curling"}, // unknown domain
	} {
		if b, err := a.Build(""); err == nil {
			t.Errorf("%+v: built %d states, want an error", a, b.Model.NumStates())
		}
	}
}

func TestFederation(t *testing.T) {
	f, err := Federation("news, basketball", basketball, Options(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(f.Names(), ","); got != "news,basketball" {
		t.Fatalf("members %s", got)
	}
	if _, err := Federation("news,curling", basketball, Options(0)); err == nil || !strings.Contains(err.Error(), "curling") {
		t.Fatalf("unknown member: err = %v", err)
	}
	if _, err := Federation("news", Archive{Videos: 1}, Options(0)); err == nil {
		t.Fatal("an empty member archive must be refused")
	}
}

// TestFleetDomain serves a basketball archive from two shard services
// behind a coordinator over loopback TCP, the way a hmmm-shardd fleet
// and hmmmd -coord -domain basketball do, and requires the coordinated
// ranking to be bit-identical to a local engine over the same archive.
// (Before the shard servers booted through Archive they had no -domain
// and always served a soccer corpus.)
func TestFleetDomain(t *testing.T) {
	b := build(t, basketball, "")
	opts := Options(0)
	co, _ := serveFleet(t, b.Model, b.Model)
	if err := waitReady(co); err != nil {
		t.Fatal(err)
	}
	if co.Domain() != "basketball" {
		t.Fatalf("coordinator recorded the %q domain, want basketball", co.Domain())
	}
	local, err := retrieval.NewEngine(b.Model, opts)
	if err != nil {
		t.Fatal(err)
	}

	d, _ := videomodel.DomainByName("basketball")
	evs := d.AllEvents()
	pattern := d.EventName(evs[0]) + " -> " + d.EventName(evs[1])
	queries, err := matn.CompileStringDomain(pattern, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := local.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) == 0 {
			t.Fatalf("%s: no local matches; the check would be vacuous", pattern)
		}
		retrievaltest.RequireSameMatches(t, pattern, want.Matches, got.Matches)
	}
}

// serveFleet serves shard i of len(models) of models[i], each from a
// shard service on loopback TCP, and dials a coordinator over them. It
// returns the coordinator and the shard addresses.
func serveFleet(t *testing.T, models ...*hmmm.Model) (*coord.Coordinator, []string) {
	t.Helper()
	addrs := make([]string, len(models))
	for i, m := range models {
		svc, err := ShardService(m, i, len(models), Options(0), 1)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(svc, nil)
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	co, err := coord.Dial(strings.Join(addrs, ";"), time.Second, coord.Options{}, Options(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co, addrs
}

func waitReady(co *coord.Coordinator) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return co.WaitReady(ctx)
}

// TestFleetDomainRefused boots fleets whose domains disagree, the way
// a hmmm-shardd -domain basketball behind a soccer hmmmd -coord would:
// a fleet mixing domains fails WaitReady, and a basketball fleet behind
// a soccer model fails server.New. Each error names an endpoint and
// both domains.
func TestFleetDomainRefused(t *testing.T) {
	bb := build(t, basketball, "").Model
	sc := build(t, soccer, "").Model

	co, addrs := serveFleet(t, bb, sc)
	err := waitReady(co)
	if err == nil {
		t.Fatal("a fleet mixing basketball and soccer shards passed WaitReady")
	}
	for _, want := range []string{addrs[1], `"soccer"`, `"basketball"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("WaitReady error %q does not name %s", err, want)
		}
	}

	co, addrs = serveFleet(t, bb, bb)
	if err := waitReady(co); err != nil {
		t.Fatal(err)
	}
	if _, err := server.New(server.Config{Model: sc, Coordinator: co}); err == nil {
		t.Fatal("a soccer server accepted a basketball fleet")
	} else {
		for _, want := range []string{addrs[0], `"soccer"`, `"basketball"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("server.New error %q does not name %s", err, want)
			}
		}
	}
	if _, err := server.New(server.Config{Model: bb, Coordinator: co}); err != nil {
		t.Errorf("a basketball server refused its basketball fleet: %v", err)
	}
}
