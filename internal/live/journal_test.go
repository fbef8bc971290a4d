package live

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/videomodel"
)

// sampleRecords builds a small deterministic journal: n videos of three
// shots each, middle shot annotated and carrying a feature vector.
func sampleRecords(n int) []Record {
	evs := videomodel.AllEvents()
	var out []Record
	shotID := videomodel.ShotID(1000)
	for i := 0; i < n; i++ {
		rec := Record{
			Video:          videomodel.VideoID(100 + i),
			Name:           "live-" + string(rune('a'+i)),
			AcceptedUnixMS: int64(1700000000000 + i),
		}
		for si := 0; si < 3; si++ {
			sr := ShotRecord{
				ID:      shotID,
				Index:   si,
				StartMS: si * 3000,
				EndMS:   (si + 1) * 3000,
			}
			if si == 1 {
				sr.Events = []videomodel.Event{evs[i%len(evs)]}
				sr.Features = []float64{float64(i), 0.5, 2, float64(si)}
			}
			shotID++
			rec.Shots = append(rec.Shots, sr)
		}
		out = append(out, rec)
	}
	return out
}

func journalBytes(tb testing.TB, records []Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := atomicwrite.EncodeRecord(&buf, journalMagic, journalVersion, "", records); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// loadBytes runs the journal loader over data written to a fresh file.
func loadBytes(t *testing.T, data []byte) ([]Record, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ingest.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return load(path)
}

func TestJournalRoundTrip(t *testing.T) {
	records := sampleRecords(3)
	got, err := loadBytes(t, journalBytes(t, records))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, records)
	}
	// An empty journal (post-truncation state) must round-trip too.
	empty, err := loadBytes(t, journalBytes(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty journal loaded %d records", len(empty))
	}
}

func TestJournalRecordInvertsResult(t *testing.T) {
	records := sampleRecords(2)
	v, feats := records[1].VideoAndFeatures()
	if v.ID != records[1].Video || v.Name != records[1].Name {
		t.Fatalf("video identity lost: %+v", v)
	}
	if len(v.Shots) != 3 {
		t.Fatalf("got %d shots, want 3", len(v.Shots))
	}
	for i, s := range v.Shots {
		if s.Video != v.ID || s.Index != i {
			t.Fatalf("shot %d has video %d index %d", s.ID, s.Video, s.Index)
		}
	}
	if len(feats) != 1 {
		t.Fatalf("got %d feature vectors, want 1", len(feats))
	}
	if _, ok := feats[v.Shots[1].ID]; !ok {
		t.Fatalf("annotated shot %d has no features", v.Shots[1].ID)
	}
	// The reconstructed video must be archive-admissible.
	if _, err := videomodel.NewArchive([]*videomodel.Video{v}); err != nil {
		t.Fatalf("reconstructed video rejected by archive: %v", err)
	}
}

func TestJournalLoadClassifiesCorruption(t *testing.T) {
	valid := journalBytes(t, sampleRecords(2))
	cases := map[string][]byte{
		"empty":     {},
		"bareMagic": []byte(journalMagic),
		"torn":      valid[:len(valid)/2],
		"garbage":   []byte("not a journal at all"),
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)-3] ^= 0x10
	cases["bitrot"] = flip
	for name, data := range cases {
		if _, err := loadBytes(t, data); !errors.Is(err, atomicwrite.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestLoadRecoverFreshAndChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ingest.log")

	// No file at all: a fresh journal, not an error.
	recs, from, corrupt, err := LoadRecover(path)
	if err != nil || recs != nil || from != "" || corrupt != 0 {
		t.Fatalf("fresh: got (%v, %q, %d, %v)", recs, from, corrupt, err)
	}

	v1 := sampleRecords(1)
	v2 := sampleRecords(2)
	if err := Persist(nil, path, v1); err != nil {
		t.Fatal(err)
	}
	if err := Persist(nil, path, v2); err != nil {
		t.Fatal(err)
	}

	// Healthy: loads path itself.
	recs, from, _, err = LoadRecover(path)
	if err != nil || from != path || !reflect.DeepEqual(recs, v2) {
		t.Fatalf("healthy: got (%d recs, %q, %v)", len(recs), from, err)
	}

	// Corrupt path: falls back to .bak (the previous acked state).
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, from, corrupt, err = LoadRecover(path)
	if err != nil || from != atomicwrite.BakPath(path) || corrupt != 1 || !reflect.DeepEqual(recs, v1) {
		t.Fatalf("bak fallback: got (%d recs, %q, corrupt=%d, %v)", len(recs), from, corrupt, err)
	}

	// .tmp outranks .bak: a fsynced-but-unrenamed write is newer.
	if err := os.WriteFile(atomicwrite.TmpPath(path), journalBytes(t, v2), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, from, _, err = LoadRecover(path)
	if err != nil || from != atomicwrite.TmpPath(path) || !reflect.DeepEqual(recs, v2) {
		t.Fatalf("tmp fallback: got (%d recs, %q, %v)", len(recs), from, err)
	}
	if err := os.Remove(atomicwrite.TmpPath(path)); err != nil {
		t.Fatal(err)
	}

	// Every candidate corrupt: hard error, never silent data loss.
	if err := os.WriteFile(atomicwrite.BakPath(path), []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadRecover(path); !errors.Is(err, atomicwrite.ErrCorrupt) {
		t.Fatalf("all-corrupt: got %v, want ErrCorrupt", err)
	}
}

// TestNewRecordFromResult checks NewRecord against the pipeline result
// it journals: the video's identity and every shot's bookkeeping carry
// over, each annotated shot keeps its feature vector, and
// VideoAndFeatures gives the result back.
func TestNewRecordFromResult(t *testing.T) {
	want, wantFeats := sampleRecords(1)[0].VideoAndFeatures()
	res := &ingest.Result{Video: want, Features: wantFeats}
	rec := NewRecord(res, 1700000000123)
	if rec.Video != want.ID || rec.Name != want.Name || rec.AcceptedUnixMS != 1700000000123 {
		t.Fatalf("record identity: %+v", rec)
	}
	if len(rec.Shots) != len(want.Shots) {
		t.Fatalf("record has %d shots, want %d", len(rec.Shots), len(want.Shots))
	}
	for i, s := range rec.Shots {
		if (s.Features == nil) == want.Shots[i].Annotated() {
			t.Errorf("shot %d: features %v, annotated %v", i, s.Features, want.Shots[i].Annotated())
		}
	}
	v, feats := rec.VideoAndFeatures()
	if !reflect.DeepEqual(v, want) || !reflect.DeepEqual(feats, wantFeats) {
		t.Errorf("VideoAndFeatures(NewRecord(res)) = %+v %v, want %+v %v", v, feats, want, wantFeats)
	}
}
