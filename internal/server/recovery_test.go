package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/store"
)

// TestRecoveryWalkPolicy drives the four callers of atomicwrite.Recover
// through the four situations a boot can meet, and pins each caller's
// policy: the feedback log starts empty when nothing usable exists, the
// ingest journal starts fresh only when nothing exists at all, and the
// snapshots need a loadable file. An I/O error (a directory in the
// primary's place, a valid .bak beside it) fails every caller.
func TestRecoveryWalkPolicy(t *testing.T) {
	c, err := dataset.Build(dataset.Config{Seed: 9, Videos: 3, Shots: 60, Annotated: 15, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	log := feedback.NewLog()
	if err := log.MarkPositive(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}

	// Outcomes: "empty" = nothing loaded and no error; "bak" = loaded
	// from the .bak; the rest name the error class.
	type caller struct {
		name string
		save func(path string) error
		load func(path string) (loaded bool, from string, err error)
		want [4]string // missing, corrupt primary, all corrupt, I/O error
	}
	callers := []caller{
		{
			name: "feedback log",
			save: func(p string) error { return atomicwrite.Write(nil, p, log.Save) },
			load: func(p string) (bool, string, error) {
				sm := newServerMetrics(obs.NewRegistry())
				l, err := loadLogRecover(p, func(string, ...any) {}, sm)
				from := p
				if sm.logRecoveries.Value() > 0 {
					from = atomicwrite.BakPath(p)
				}
				return l != nil, from, err
			},
			want: [4]string{"empty", "bak", "empty", "io"},
		},
		{
			name: "ingest journal",
			save: func(p string) error { return live.Persist(nil, p, []live.Record{{Video: 7, Name: "x"}}) },
			load: func(p string) (bool, string, error) {
				recs, from, _, err := live.LoadRecover(p)
				return recs != nil, from, err
			},
			want: [4]string{"empty", "bak", "corrupt", "io"},
		},
		{
			name: "model snapshot",
			save: func(p string) error { return store.SaveModelCompact(p, m) },
			load: func(p string) (bool, string, error) {
				got, from, err := store.LoadModelRecover(p)
				return got != nil, from, err
			},
			want: [4]string{"missing", "bak", "corrupt", "io"},
		},
		{
			name: "corpus snapshot",
			save: func(p string) error { return store.SaveCorpus(p, c) },
			load: func(p string) (bool, string, error) {
				got, from, err := store.LoadCorpusRecover(p)
				return got != nil, from, err
			},
			want: [4]string{"missing", "bak", "corrupt", "io"},
		},
	}
	garbage := func(p string) error { return os.WriteFile(p, []byte("torn"), 0o644) }
	situations := []struct {
		name  string
		setup func(path string, save func(string) error) error
	}{
		{"missing", func(string, func(string) error) error { return nil }},
		{"corrupt primary", func(p string, save func(string) error) error {
			if err := save(atomicwrite.BakPath(p)); err != nil {
				return err
			}
			return garbage(p)
		}},
		{"all corrupt", func(p string, _ func(string) error) error {
			if err := garbage(atomicwrite.BakPath(p)); err != nil {
				return err
			}
			return garbage(p)
		}},
		{"io error", func(p string, save func(string) error) error {
			if err := save(atomicwrite.BakPath(p)); err != nil {
				return err
			}
			return os.Mkdir(p, 0o755)
		}},
	}
	for _, cl := range callers {
		for si, sit := range situations {
			t.Run(cl.name+"/"+sit.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "record")
				if err := sit.setup(path, cl.save); err != nil {
					t.Fatal(err)
				}
				loaded, from, err := cl.load(path)
				var got string
				switch {
				case err == nil && !loaded:
					got = "empty"
				case err == nil && from == atomicwrite.BakPath(path):
					got = "bak"
				case err == nil:
					got = "loaded from " + from
				case errors.Is(err, atomicwrite.ErrCorrupt):
					got = "corrupt"
				case os.IsNotExist(err):
					got = "missing"
				default:
					got = "io"
				}
				if got != cl.want[si] {
					t.Fatalf("outcome %q (err %v), want %q", got, err, cl.want[si])
				}
			})
		}
	}
}
