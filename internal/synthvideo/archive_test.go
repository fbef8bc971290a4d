package synthvideo

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/videodb/hmmm/internal/videomodel"
)

func TestGenerateArchiveShape(t *testing.T) {
	cfg := ArchiveConfig{Seed: 7, Videos: 6, Shots: 300, Annotated: 40}
	a, feats, err := GenerateArchive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Videos != 6 || st.Shots != 300 || st.Annotated != 40 {
		t.Fatalf("stats %d/%d/%d, want 6/300/40", st.Videos, st.Shots, st.Annotated)
	}
	if len(feats) != 40 {
		t.Fatalf("%d feature vectors, want 40", len(feats))
	}
	shots := map[videomodel.ShotID]*videomodel.Shot{}
	for _, s := range a.AllShots() {
		shots[s.ID] = s
	}
	for id, f := range feats {
		if len(f) != featureDim {
			t.Fatalf("shot %d has %d features, want %d", id, len(f), featureDim)
		}
		for i, v := range f {
			if v < 0 || v > 1 {
				t.Fatalf("shot %d feature %d = %v outside [0,1]", id, i, v)
			}
		}
		if !shots[id].Annotated() {
			t.Fatalf("features present for unannotated shot %d", id)
		}
	}
	// Every video gets its even share of shots and annotations.
	for _, v := range a.Videos {
		if len(v.Shots) != 50 {
			t.Errorf("video %d has %d shots, want 50", v.ID, len(v.Shots))
		}
	}
}

func TestGenerateArchiveDeterministic(t *testing.T) {
	cfg := ArchiveConfig{Seed: 3, Videos: 4, Shots: 120, Annotated: 24}
	a1, f1, err := GenerateArchive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, f2, err := GenerateArchive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != len(f2) {
		t.Fatalf("feature counts differ: %d vs %d", len(f1), len(f2))
	}
	for id, f := range f1 {
		g := f2[id]
		for i := range f {
			if f[i] != g[i] {
				t.Fatalf("shot %d feature %d differs across runs", id, i)
			}
		}
	}
	for i, s := range a1.AllShots() {
		s2 := a2.AllShots()[i]
		if s.ID != s2.ID || s.StartMS != s2.StartMS || len(s.Events) != len(s2.Events) {
			t.Fatalf("shot %d differs across runs", i)
		}
	}
	// A different seed moves the features.
	_, f3, err := GenerateArchive(ArchiveConfig{Seed: 4, Videos: 4, Shots: 120, Annotated: 24})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for id, f := range f1 {
		g, ok := f3[id]
		if !ok || f[0] != g[0] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed change left every feature identical")
	}
}

// TestGenerateArchiveClassSeparation pins the property the coarse index
// relies on: shots of one class cluster around their centroid, so the
// per-class feature means are distinguishable.
func TestGenerateArchiveClassSeparation(t *testing.T) {
	a, feats, err := GenerateArchive(ArchiveConfig{Seed: 11, Videos: 8, Shots: 2000, Annotated: 600})
	if err != nil {
		t.Fatal(err)
	}
	means := make(map[videomodel.Event][]float64)
	counts := make(map[videomodel.Event]int)
	for _, s := range a.AllShots() {
		if !s.Annotated() {
			continue
		}
		e := s.Events[0]
		if means[e] == nil {
			means[e] = make([]float64, featureDim)
		}
		for i, v := range feats[s.ID] {
			means[e][i] += v
		}
		counts[e]++
	}
	var classes []videomodel.Event
	for e, n := range counts {
		if n < 10 {
			continue
		}
		for i := range means[e] {
			means[e][i] /= float64(n)
		}
		classes = append(classes, e)
	}
	if len(classes) < 3 {
		t.Fatalf("only %d classes with >= 10 samples", len(classes))
	}
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			var dist float64
			for f := 0; f < featureDim; f++ {
				d := means[classes[i]][f] - means[classes[j]][f]
				dist += d * d
			}
			// Jitter std is 0.06; centroids are much farther apart.
			if dist < 0.01 {
				t.Errorf("classes %v and %v have nearly identical means (d^2 = %v)",
					classes[i], classes[j], dist)
			}
		}
	}
}

func TestScaledArchive(t *testing.T) {
	p := PaperArchive(1)
	if p.Videos != 54 || p.Shots != 11567 || p.Annotated != 506 {
		t.Fatalf("paper preset %+v", p)
	}
	s1 := ScaledArchive(1, 1)
	if s1 != p {
		t.Errorf("factor 1 = %+v, want the paper preset", s1)
	}
	s100 := ScaledArchive(1, 100)
	if s100.Videos != 540 || s100.Shots != 1156700 || s100.Annotated != 50600 {
		t.Errorf("factor 100 = %+v", s100)
	}
	if under := ScaledArchive(1, 0); under != p {
		t.Errorf("factor 0 = %+v, want clamped to the paper preset", under)
	}
}

func TestGenerateArchiveRejectsBadConfig(t *testing.T) {
	bad := []ArchiveConfig{
		{Seed: 1, Videos: 0, Shots: 10, Annotated: 1},
		{Seed: 1, Videos: 20, Shots: 10, Annotated: 1},
		{Seed: 1, Videos: 2, Shots: 10, Annotated: 0},
		{Seed: 1, Videos: 2, Shots: 10, Annotated: 11},
	}
	for i, cfg := range bad {
		if _, _, err := GenerateArchive(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// archiveFingerprint hashes everything GenerateArchive returns: every
// shot's identity, timing and events in archive order, then the exact
// bits of every feature vector in shot order.
func archiveFingerprint(a *videomodel.Archive, feats map[videomodel.ShotID][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	shots := a.AllShots()
	put(uint64(len(a.Videos)))
	put(uint64(len(shots)))
	put(uint64(len(feats)))
	for _, s := range shots {
		put(uint64(s.ID))
		put(uint64(s.Video))
		put(uint64(s.Index))
		put(uint64(s.StartMS))
		put(uint64(s.EndMS))
		put(uint64(len(s.Events)))
		for _, e := range s.Events {
			put(uint64(e))
		}
	}
	for _, s := range shots {
		f, ok := feats[s.ID]
		if !ok {
			continue
		}
		put(uint64(s.ID))
		put(uint64(len(f)))
		for _, v := range f {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestGenerateArchiveFingerprint freezes the generator's output bit for
// bit. Every benchmark workload and every scale and recall gate runs on
// these archives, so a change to the sampling (draw order, weights,
// jitter) must show here as a deliberate change to a literal.
func TestGenerateArchiveFingerprint(t *testing.T) {
	withDomain := func(cfg ArchiveConfig, d *videomodel.Domain) ArchiveConfig {
		cfg.Domain = d
		return cfg
	}
	cases := []struct {
		name string
		cfg  ArchiveConfig
		want uint64
	}{
		{"paper/1", PaperArchive(1), 0x61c33f4615be5343},
		{"paper/2006", PaperArchive(2006), 0x576db0fa3c4bc138},
		{"scaled/2006x10", ScaledArchive(2006, 10), 0x8b4811a3e4eea4c7},
		{"scaled/2006x100", ScaledArchive(2006, 100), 0x63a6e5aa845a4d3f},
		{"basketball/2006", withDomain(PaperArchive(2006), videomodel.Basketball()), 0x9d035d2b1575004f},
		{"news/2006", withDomain(PaperArchive(2006), videomodel.News()), 0x7f9808e81a568db8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, feats, err := GenerateArchive(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := archiveFingerprint(a, feats); got != tc.want {
				t.Errorf("fingerprint %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
