package dataset

import (
	"bytes"
	"encoding/csv"
	"runtime"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/features"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

func smallConfig(seed uint64) Config {
	return Config{Seed: seed, Videos: 4, Shots: 120, Annotated: 24, Fast: true}
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{Videos: 0, Shots: 10, Annotated: 1},
		{Videos: 5, Shots: 3, Annotated: 0},
		{Videos: 2, Shots: 10, Annotated: 11},
		{Videos: 2, Shots: 10, Annotated: -1},
		{Videos: 5, Shots: 10, Annotated: 3}, // cannot cover every video
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := PaperScale(1).Validate(); err != nil {
		t.Errorf("paper-scale config rejected: %v", err)
	}
}

func TestBuildExactCounts(t *testing.T) {
	c, err := Build(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Archive.Stats()
	if st.Videos != 4 || st.Shots != 120 || st.Annotated != 24 {
		t.Fatalf("stats = %+v, want 4 videos / 120 shots / 24 annotated", st)
	}
	if len(c.Features) != 24 {
		t.Fatalf("features for %d shots, want 24", len(c.Features))
	}
	for id, f := range c.Features {
		if len(f) != features.K {
			t.Fatalf("shot %d features have %d dims, want %d", id, len(f), features.K)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Archive.NumShots() != b.Archive.NumShots() {
		t.Fatal("shot counts differ")
	}
	for id, fa := range a.Features {
		fb, ok := b.Features[id]
		if !ok {
			t.Fatalf("shot %d missing from second corpus", id)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("shot %d feature %d differs: %v vs %v", id, i, fa[i], fb[i])
			}
		}
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var a *Corpus
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		b, err := Build(smallConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			a = b
			continue
		}
		for id, fa := range a.Features {
			fb := b.Features[id]
			for i := range fa {
				if fa[i] != fb[i] {
					t.Fatalf("GOMAXPROCS=%d changed shot %d feature %d", procs, id, i)
				}
			}
		}
	}
}

func TestBuildDifferentSeedsDiffer(t *testing.T) {
	a, _ := Build(smallConfig(1))
	b, _ := Build(smallConfig(2))
	same := 0
	for id, fa := range a.Features {
		if fb, ok := b.Features[id]; ok && len(fb) > 0 && fa[0] == fb[0] {
			same++
		}
	}
	if same == len(a.Features) {
		t.Error("different seeds produced identical features")
	}
}

func TestMediaDroppedByDefault(t *testing.T) {
	c, err := Build(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Archive.AllShots() {
		if s.Frames != nil || s.Audio != nil {
			t.Fatal("media retained without KeepMedia")
		}
	}
}

func TestKeepMedia(t *testing.T) {
	cfg := Config{Seed: 1, Videos: 1, Shots: 6, Annotated: 2, Fast: true, KeepMedia: true}
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Archive.AllShots() {
		if len(s.Frames) == 0 || s.Audio == nil {
			t.Fatalf("shot %d media missing with KeepMedia", s.ID)
		}
	}
}

func TestEveryVideoHasAnnotatedShot(t *testing.T) {
	c, err := Build(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Archive.Videos {
		if !slices.ContainsFunc(v.Shots, (*videomodel.Shot).Annotated) {
			t.Errorf("video %d has no annotated shots", v.ID)
		}
	}
}

func TestShotsAreContiguousInTime(t *testing.T) {
	c, err := Build(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Archive.Videos {
		t0 := 0
		for _, s := range v.Shots {
			if s.StartMS != t0 {
				t.Fatalf("video %d shot %d starts at %d, want %d", v.ID, s.Index, s.StartMS, t0)
			}
			if s.EndMS <= s.StartMS {
				t.Fatalf("video %d shot %d has non-positive duration", v.ID, s.Index)
			}
			t0 = s.EndMS
		}
	}
}

func TestEventDistributionPlausible(t *testing.T) {
	cfg := Config{Seed: 21, Videos: 8, Shots: 800, Annotated: 160, Fast: true}
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Archive.Stats()
	// Fouls and corners are common; red cards rare but present at this
	// scale only probabilistically — just require broad coverage.
	kinds := 0
	for _, e := range videomodel.AllEvents() {
		if st.EventCounts[e.String()] > 0 {
			kinds++
		}
	}
	if kinds < 6 {
		t.Errorf("only %d event kinds present: %v", kinds, st.EventCounts)
	}
	if st.EventCounts["foul"] < st.EventCounts["red_card"] {
		t.Errorf("fouls (%d) should outnumber red cards (%d)", st.EventCounts["foul"], st.EventCounts["red_card"])
	}
}

func TestCorpusFeedsHMMMBuild(t *testing.T) {
	c, err := Build(smallConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(1e-9); err != nil {
		t.Fatalf("model from corpus invalid: %v", err)
	}
	if m.NumStates() != 24 {
		t.Errorf("states = %d, want 24", m.NumStates())
	}
}

func TestSplitEvenly(t *testing.T) {
	parts := splitEvenly(10, 3)
	if parts[0]+parts[1]+parts[2] != 10 {
		t.Errorf("split sums to %d", parts[0]+parts[1]+parts[2])
	}
	if parts[0] != 4 || parts[1] != 3 || parts[2] != 3 {
		t.Errorf("split = %v", parts)
	}
}

func BenchmarkBuildSmallCorpus(b *testing.B) {
	cfg := smallConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteGroundTruthCSV(t *testing.T) {
	c, err := Build(smallConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteGroundTruthCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("export is not valid CSV: %v", err)
	}
	// Header + one row per annotated shot.
	if len(records) != 1+c.Archive.NumAnnotated() {
		t.Errorf("rows = %d, want %d", len(records), 1+c.Archive.NumAnnotated())
	}
	if records[0][7] != "events" {
		t.Errorf("header = %v", records[0])
	}
	for _, rec := range records[1:] {
		if rec[7] == "" {
			t.Error("annotated row with empty events")
		}
		if rec[2] == "" {
			t.Error("row missing genre")
		}
	}
}
