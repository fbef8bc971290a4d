package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matrix"
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

// TestModelRecordMirrorsSnapshot guards the "model" record's wire struct:
// it must carry every hmmm.Snapshot field by name, in snapshot order,
// except the start times and video offsets its states carry, and
// modelPayload must read every one of its fields by name, in order and
// of the same type, except that A1 blocks and A2 travel as square
// *matrix.Dense. A field added to the snapshot and not to the record
// would be dropped by every save; a renamed or reordered one would
// change the bytes, which TestRecordBytesFrozen pins.
func TestModelRecordMirrorsSnapshot(t *testing.T) {
	_, m := fixtures(t)
	rt := reflect.TypeOf(modelRecord(m.Snapshot())).Elem()
	pt := reflect.TypeOf(modelPayload{})
	if rt.Name() != "Snapshot" || rt.NumField() != pt.NumField() {
		t.Fatalf("record is %s with %d fields, payload has %d", rt.Name(), rt.NumField(), pt.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		rf, pf := rt.Field(i), pt.Field(i)
		want := pf.Type
		switch pf.Name {
		case "LocalA":
			want = reflect.TypeOf([]*matrix.Dense(nil))
		case "A2":
			want = reflect.TypeOf((*matrix.Dense)(nil))
		}
		if rf.Name != pf.Name || rf.Type != want {
			t.Errorf("record field %d is %s %v, payload reads %s %v", i, rf.Name, rf.Type, pf.Name, want)
		}
	}
	var names []string
	st := reflect.TypeOf(hmmm.Snapshot{})
	for i := 0; i < st.NumField(); i++ {
		if n := st.Field(i).Name; n != "StartMS" && n != "Offsets" {
			names = append(names, n)
		}
	}
	if len(names) != rt.NumField() {
		t.Errorf("record has %d fields, snapshot %d besides its start times and offsets", rt.NumField(), len(names))
	}
	for i, n := range names {
		if i >= rt.NumField() || rt.Field(i).Name != n {
			t.Errorf("snapshot field %s is not record field %d", n, i)
		}
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Snapshot(), m.Snapshot()) {
		t.Error("a save and load changed the snapshot")
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
	if _, err := LoadModel(cp); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Errorf("LoadModel(corpus) err = %v, want ErrCorrupt", err)
	}
	if _, err := LoadCorpus(mp); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Errorf("LoadCorpus(model) err = %v, want ErrCorrupt", err)
	}
}

func TestLoadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
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
	// A1 blocks export as full square rows, zeros left of the diagonal.
	a1 := out["local_a1"].(map[string]any)[fmt.Sprintf("video_%d", m.VideoIDs[0])].([]any)
	n := m.LocalA[0].Rows()
	if len(a1) != n {
		t.Fatalf("video 0 A1 exports %d rows, want %d", len(a1), n)
	}
	for i, r := range a1 {
		row := r.([]any)
		if len(row) != n {
			t.Fatalf("A1 row %d exports %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v.(float64) != m.LocalA[0].At(i, j) {
				t.Errorf("A1(%d,%d) exports %v, want %v", i, j, v, m.LocalA[0].At(i, j))
			}
		}
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
	for i, p := range m.Pi1.Values() {
		if loaded.Pi1.At(i) != p {
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
	if _, err := LoadModel(path); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Errorf("corrupted snapshot err = %v, want ErrCorrupt", err)
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
	for i, v := range m.Pi1.Values() {
		if loaded.Pi1.At(i) != v {
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
