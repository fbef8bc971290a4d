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
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
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
	addrs := make([]string, 2)
	for i := range addrs {
		svc, err := ShardService(b.Model, i, len(addrs), opts, 1)
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
	co, err := coord.Dial(strings.Join(addrs, ";"), time.Second, coord.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.WaitReady(ctx); err != nil {
		t.Fatal(err)
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
