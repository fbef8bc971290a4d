package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/obs"
)

func recoverTestModel(t *testing.T) *hmmm.Model {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 9, Videos: 3, Shots: 60, Annotated: 15, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// corrupt flips a byte near the end of the file (inside the payload, so
// the CRC check — not the header parse — must catch it).
func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadModelRecoverFromBackup(t *testing.T) {
	m := recoverTestModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	// Two saves: the second's rename chain leaves the first as .bak.
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	corrupt(t, path)

	if _, err := LoadModel(path); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Fatalf("corrupted primary: err = %v, want ErrCorrupt", err)
	}
	got, used, err := LoadModelRecover(path)
	if err != nil {
		t.Fatalf("recover failed: %v", err)
	}
	if used != atomicwrite.BakPath(path) {
		t.Errorf("recovered from %q, want backup", used)
	}
	if got.NumStates() != m.NumStates() || got.NumVideos() != m.NumVideos() {
		t.Errorf("recovered model shape %d/%d, want %d/%d",
			got.NumStates(), got.NumVideos(), m.NumStates(), m.NumVideos())
	}
}

func TestLoadModelRecoverFromTmp(t *testing.T) {
	m := recoverTestModel(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	// Simulate a crash between the tmp fsync and the rename: only the
	// temp file exists.
	other := filepath.Join(dir, "staging.gob")
	if err := SaveModel(other, m); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(other, atomicwrite.TmpPath(path)); err != nil {
		t.Fatal(err)
	}
	got, used, err := LoadModelRecover(path)
	if err != nil {
		t.Fatalf("recover failed: %v", err)
	}
	if used != atomicwrite.TmpPath(path) {
		t.Errorf("recovered from %q, want tmp", used)
	}
	if got.NumStates() != m.NumStates() {
		t.Errorf("recovered model has %d states, want %d", got.NumStates(), m.NumStates())
	}
}

func TestLoadModelRecoverAllMissing(t *testing.T) {
	if _, _, err := LoadModelRecover(filepath.Join(t.TempDir(), "nope.gob")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

func TestSaveModelKeepsBackup(t *testing.T) {
	m := recoverTestModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(atomicwrite.BakPath(path)); err != nil {
		t.Errorf("backup not loadable: %v", err)
	}
}

// TestRecoverStopsOnIOError: a primary that cannot be read for a reason
// other than damage (here a directory in its place) fails the load even
// with a valid .bak beside it. Startup fails only on real I/O errors,
// and then it must fail rather than quietly serve an older snapshot.
func TestRecoverStopsOnIOError(t *testing.T) {
	c, m := fixtures(t)
	for _, tc := range []struct {
		kind string
		save func(path string) error
		load func(path string) (string, error)
	}{
		{"model", func(p string) error { return SaveModel(p, m) }, func(p string) (string, error) {
			_, from, err := LoadModelRecover(p)
			return from, err
		}},
		{"corpus", func(p string) error { return SaveCorpus(p, c) }, func(p string) (string, error) {
			_, from, err := LoadCorpusRecover(p)
			return from, err
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.kind+".gob")
			if err := tc.save(atomicwrite.BakPath(path)); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
			from, err := tc.load(path)
			if err == nil || errors.Is(err, atomicwrite.ErrCorrupt) || os.IsNotExist(err) {
				t.Fatalf("directory primary: (from %q, err %v), want an I/O error", from, err)
			}
		})
	}
}

// TestRecoverMetricsCountBothKinds: model and corpus recoveries count
// loads, recoveries and corrupt candidates the same way, so recoveries
// never exceed loads.
func TestRecoverMetricsCountBothKinds(t *testing.T) {
	c, m := fixtures(t)
	mm := NewMetrics(obs.NewRegistry())
	SetMetrics(mm)
	t.Cleanup(func() { SetMetrics(nil) })
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	corpusPath := filepath.Join(dir, "corpus.gob")
	for i := 0; i < 2; i++ { // the second save leaves the first as .bak
		if err := SaveModel(modelPath, m); err != nil {
			t.Fatal(err)
		}
		if err := SaveCorpus(corpusPath, c); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, corpusPath)
	if _, from, err := LoadCorpusRecover(corpusPath); err != nil || from != atomicwrite.BakPath(corpusPath) {
		t.Fatalf("corpus recovery = (%q, %v), want the .bak", from, err)
	}
	if got := []uint64{mm.Loads.Value(), mm.Recoveries.Value(), mm.CorruptCandidates.Value()}; !reflect.DeepEqual(got, []uint64{1, 1, 1}) {
		t.Fatalf("after corpus recovery loads/recoveries/corrupt = %v, want [1 1 1]", got)
	}
	corrupt(t, modelPath)
	if _, from, err := LoadModelRecover(modelPath); err != nil || from != atomicwrite.BakPath(modelPath) {
		t.Fatalf("model recovery = (%q, %v), want the .bak", from, err)
	}
	if _, _, err := LoadModelRecover(atomicwrite.BakPath(modelPath)); err != nil {
		t.Fatal(err)
	}
	if got := []uint64{mm.Loads.Value(), mm.Recoveries.Value(), mm.CorruptCandidates.Value()}; !reflect.DeepEqual(got, []uint64{3, 2, 2}) {
		t.Fatalf("after model recoveries loads/recoveries/corrupt = %v, want [3 2 2]", got)
	}
}
