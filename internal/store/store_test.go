package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
)

func fixtures(t *testing.T) (*dataset.Corpus, *hmmm.Model) {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 9, Videos: 3, Shots: 60, Annotated: 15, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestCorpusRoundTrip(t *testing.T) {
	c, _ := fixtures(t)
	path := filepath.Join(t.TempDir(), "corpus.gob")
	if err := SaveCorpus(path, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Archive.NumShots() != c.Archive.NumShots() {
		t.Errorf("shots = %d, want %d", loaded.Archive.NumShots(), c.Archive.NumShots())
	}
	if loaded.Archive.NumAnnotated() != c.Archive.NumAnnotated() {
		t.Errorf("annotated = %d, want %d", loaded.Archive.NumAnnotated(), c.Archive.NumAnnotated())
	}
	if len(loaded.Features) != len(c.Features) {
		t.Errorf("features = %d, want %d", len(loaded.Features), len(c.Features))
	}
	for id, f := range c.Features {
		lf := loaded.Features[id]
		for i := range f {
			if f[i] != lf[i] {
				t.Fatalf("feature mismatch at shot %d dim %d", id, i)
			}
		}
	}
	if loaded.Config.Seed != c.Config.Seed {
		t.Error("config lost in round trip")
	}
}

func TestModelRoundTrip(t *testing.T) {
	c, m := fixtures(t)
	_ = c
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(1e-9); err != nil {
		t.Fatalf("loaded model invalid: %v", err)
	}
	if loaded.NumStates() != m.NumStates() || loaded.NumVideos() != m.NumVideos() {
		t.Errorf("shape mismatch after round trip")
	}
	for i := 0; i < m.NumStates(); i++ {
		for j := 0; j < m.K(); j++ {
			if loaded.B1.At(i, j) != m.B1.At(i, j) {
				t.Fatalf("B1(%d,%d) mismatch", i, j)
			}
		}
	}
	for vi := range m.LocalA {
		if loaded.LocalA[vi].Rows() != m.LocalA[vi].Rows() {
			t.Fatalf("local A %d shape mismatch", vi)
		}
	}
	// Scaler must survive so future feature vectors normalize identically.
	probe := make([]float64, m.K())
	for i := range probe {
		probe[i] = 0.5
	}
	a := append([]float64(nil), probe...)
	b := append([]float64(nil), probe...)
	m.Scaler.TransformRow(a)
	loaded.Scaler.TransformRow(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scaler bounds lost in round trip")
		}
	}
}

func TestLoadWrongKind(t *testing.T) {
	c, m := fixtures(t)
	dir := t.TempDir()
	cp := filepath.Join(dir, "c.gob")
	mp := filepath.Join(dir, "m.gob")
	if err := SaveCorpus(cp, c); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(mp, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(cp); !errors.Is(err, ErrBadFormat) {
		t.Errorf("LoadModel(corpus) err = %v, want ErrBadFormat", err)
	}
	if _, err := LoadCorpus(mp); !errors.Is(err, ErrBadFormat) {
		t.Errorf("LoadCorpus(model) err = %v, want ErrBadFormat", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadModel(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	c, _ := fixtures(t)
	dir := t.TempDir()
	if err := SaveCorpus(filepath.Join(dir, "c.gob"), c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after save, want 1", len(entries))
	}
}

func TestExportModelJSON(t *testing.T) {
	_, m := fixtures(t)
	var buf bytes.Buffer
	if err := ExportModelJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if int(out["num_states"].(float64)) != m.NumStates() {
		t.Error("num_states wrong in JSON export")
	}
	if _, ok := out["p12"]; !ok {
		t.Error("p12 missing from JSON export")
	}
	if _, ok := out["local_a1"]; !ok {
		t.Error("local_a1 missing from JSON export")
	}
}

func TestTrainedModelSurvivesRoundTrip(t *testing.T) {
	_, base := fixtures(t)
	// Train, save, load: the trained probabilities must persist exactly.
	m, err := base.Train([]mmm.AccessPattern{{States: []int{0, 1}, Freq: 3}}, nil, hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Pi1 {
		if loaded.Pi1[i] != p {
			t.Fatal("trained Pi1 lost in round trip")
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	_, m := fixtures(t)
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte near the end of the file.
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted snapshot err = %v, want ErrChecksum", err)
	}
}

func TestCompactModelRoundTrip(t *testing.T) {
	_, m := fixtures(t)
	dir := t.TempDir()
	densePath := filepath.Join(dir, "model.gob")
	compactPath := filepath.Join(dir, "model.cgob")
	if err := SaveModel(densePath, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveModelCompact(compactPath, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(compactPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(1e-6); err != nil {
		t.Fatalf("loaded compact model invalid: %v", err)
	}
	if loaded.NumStates() != m.NumStates() || loaded.NumVideos() != m.NumVideos() {
		t.Error("shape mismatch after compact round trip")
	}
	// Quantized storage: each B1 entry is the float32 rounding of the
	// original, and the unquantized Π/P12 survive bitwise.
	for i := 0; i < m.NumStates(); i++ {
		for j := 0; j < m.K(); j++ {
			if want := float64(float32(m.B1.At(i, j))); loaded.B1.At(i, j) != want {
				t.Fatalf("B1(%d,%d) = %v, want %v", i, j, loaded.B1.At(i, j), want)
			}
		}
	}
	for i, v := range m.Pi1 {
		if loaded.Pi1[i] != v {
			t.Fatalf("Pi1[%d] changed in compact round trip", i)
		}
	}
	dense, err := os.Stat(densePath)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := os.Stat(compactPath)
	if err != nil {
		t.Fatal(err)
	}
	if compact.Size() >= dense.Size() {
		t.Errorf("compact snapshot is %d bytes on disk, dense is %d", compact.Size(), dense.Size())
	}
	t.Logf("on disk: dense %d bytes, compact %d bytes (%.2fx)",
		dense.Size(), compact.Size(), float64(dense.Size())/float64(compact.Size()))
}
