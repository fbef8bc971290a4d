package hmmm

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"

	"github.com/videodb/hmmm/internal/dataset"
)

// snapshotBytes gob-encodes the model's full exported state. Snapshot
// has no maps and a fixed field order, so equal models encode to equal
// bytes.
func snapshotBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildBitIdenticalAcrossWorkerCounts is the offline-pipeline
// determinism contract (mirroring the dataset package's test of the
// same name): Build produces byte-for-byte identical models — every
// matrix, scaler bound, and state — for any GOMAXPROCS, because workers
// only fill disjoint preassigned rows and the reductions (scaler fit,
// P12 normalization) stay serial.
func TestBuildBitIdenticalAcrossWorkerCounts(t *testing.T) {
	corpus, err := dataset.Build(dataset.Config{
		Seed: 17, Videos: 9, Shots: 450, Annotated: 80, Fast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var ref []byte
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		m, err := Build(corpus.Archive, corpus.Features, BuildOptions{LearnP12: true})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := snapshotBytes(t, m); ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Errorf("GOMAXPROCS=%d: model bytes differ from serial build", procs)
		}
	}
}

// TestBuildWorkersErrorMatchesSerial checks that the parallel Build
// reports the same (first, in state order) error a serial build would:
// an annotated shot with a wrong-length feature vector.
func TestBuildWorkersErrorMatchesSerial(t *testing.T) {
	a, feats := fixtureArchive(t)
	// Corrupt the feature vector of the first annotated shot of video 1
	// (global order puts video 0's bad shots first if both were corrupt;
	// here only one is, so both builds must name exactly it).
	var badShot int
	for _, v := range a.Videos {
		for _, s := range v.Shots {
			if s.Annotated() && v.ID == 2 {
				feats[s.ID] = feats[s.ID][:2]
				badShot = int(s.ID)
				goto corrupted
			}
		}
	}
corrupted:
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	want := ""
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		_, err := Build(a, feats, BuildOptions{})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: corrupt corpus accepted (shot %d)", procs, badShot)
		}
		if want == "" {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Errorf("GOMAXPROCS=%d: error %q differs from serial %q", procs, err, want)
		}
	}
}
