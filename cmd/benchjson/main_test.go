package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, e, ok := parseBenchLine(
		"BenchmarkQueryUnderRetrain/during-retrain-8   200   31415 ns/op   99000 p99-ns/op   2048 B/op   12 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if name != "BenchmarkQueryUnderRetrain/during-retrain" {
		t.Errorf("name = %q", name)
	}
	if e.Iterations != 200 || e.NsPerOp != 31415 || e.BytesPerOp != 2048 || e.AllocsPerOp != 12 {
		t.Errorf("entry = %+v", e)
	}
	if e.Extra["p99-ns/op"] != 99000 {
		t.Errorf("extra = %v, want p99-ns/op=99000", e.Extra)
	}

	if _, _, ok := parseBenchLine("ok  \tgithub.com/videodb/hmmm\t2.1s"); ok {
		t.Error("non-benchmark line parsed")
	}
	if _, _, ok := parseBenchLine("BenchmarkNoResult-8   200"); ok {
		t.Error("line without ns/op accepted")
	}
	// Sub-benchmark names keep their /suffix but lose only the -P tag.
	name, _, ok = parseBenchLine("BenchmarkBuildPaperScale/workers=4-16  10  123.5 ns/op")
	if !ok || name != "BenchmarkBuildPaperScale/workers=4" {
		t.Errorf("name = %q, ok = %v", name, ok)
	}
}

func TestTrajectoryAppendAndLegacyConversion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")

	// Legacy format: bare name -> entry map.
	legacy := map[string]Entry{"BenchmarkOld": {Iterations: 5, NsPerOp: 100}}
	buf, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	trajectory, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 1 || trajectory[0].Benchmarks["BenchmarkOld"].NsPerOp != 100 {
		t.Fatalf("legacy conversion = %+v", trajectory)
	}
	if trajectory[0].Meta.Note != preMetadataNote {
		t.Errorf("legacy record note = %q, want %q", trajectory[0].Meta.Note, preMetadataNote)
	}

	// Append a second record and reload: both survive, in order.
	trajectory = append(trajectory, Record{
		Meta:       collectMeta("test"),
		Benchmarks: map[string]Entry{"BenchmarkNew": {Iterations: 7, NsPerOp: 50}},
	})
	buf, err = json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	reloaded, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != 2 {
		t.Fatalf("trajectory length = %d, want 2", len(reloaded))
	}
	if reloaded[1].Meta.Note != "test" || reloaded[1].Meta.GOMAXPROCS == 0 {
		t.Errorf("meta not preserved: %+v", reloaded[1].Meta)
	}
	if _, err := loadTrajectory(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Errorf("missing file should be empty trajectory, got %v", err)
	}
}

// TestTagLegacy covers the metadata-less record tagging: array records
// written before Meta existed gain the pre-metadata note, annotated
// records stay untouched.
func TestTagLegacy(t *testing.T) {
	in := []Record{
		{Benchmarks: map[string]Entry{"BenchmarkA": {Iterations: 1, NsPerOp: 1}}},
		{Meta: Meta{Date: "2026-08-05T20:29:29Z", NumCPU: 1}},
		{Meta: Meta{Note: "hand-annotated"}},
	}
	out := tagLegacy(in)
	if out[0].Meta.Note != preMetadataNote {
		t.Errorf("bare record note = %q, want %q", out[0].Meta.Note, preMetadataNote)
	}
	if out[1].Meta.Note != "" {
		t.Errorf("dated record gained note %q", out[1].Meta.Note)
	}
	if out[2].Meta.Note != "hand-annotated" {
		t.Errorf("annotated record note changed to %q", out[2].Meta.Note)
	}
}

func TestParseServingLine(t *testing.T) {
	// cmd/hmmmload emits bench-format lines with custom serving units;
	// everything beyond the standard ns/op must survive in Extra.
	name, e, ok := parseBenchLine(
		"BenchmarkServing/coalesce=on 6400 11380000 ns/op 11370000 p50-ns/op 17573000 p95-ns/op " +
			"20415000 p99-ns/op 20357000 cheap-p99-ns/op 1593.70 goodput-qps 1600.00 offered-qps " +
			"0.0000 shed-rate 0.4914 coalesce-hit-rate")
	if !ok {
		t.Fatal("serving line not parsed")
	}
	if name != "BenchmarkServing/coalesce=on" {
		t.Errorf("name = %q", name)
	}
	if e.Iterations != 6400 || e.NsPerOp != 11380000 {
		t.Errorf("entry = %+v", e)
	}
	want := map[string]float64{
		"p50-ns/op":         11370000,
		"p95-ns/op":         17573000,
		"p99-ns/op":         20415000,
		"cheap-p99-ns/op":   20357000,
		"goodput-qps":       1593.70,
		"offered-qps":       1600.00,
		"shed-rate":         0,
		"coalesce-hit-rate": 0.4914,
	}
	for unit, v := range want {
		if e.Extra[unit] != v {
			t.Errorf("extra[%q] = %v, want %v", unit, e.Extra[unit], v)
		}
	}
}

// TestMedianEntryKeepsEverySample folds a -count=3 run: every metric is
// the median of its three values, an extra unit reported by only some
// lines is the median of those, and the entry counts its samples.
func TestMedianEntryKeepsEverySample(t *testing.T) {
	var es []Entry
	for _, line := range []string{
		"BenchmarkMillionShot/x100-8  100  900 ns/op  7 heap-MB  64 B/op  2 allocs/op",
		"BenchmarkMillionShot/x100-8  100  300 ns/op  5 heap-MB  32 B/op  1 allocs/op",
		"BenchmarkMillionShot/x100-8  100  500 ns/op  9 heap-MB  16 B/op  1 allocs/op  4 p99-ns/op",
	} {
		_, e, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("line not parsed: %s", line)
		}
		es = append(es, e)
	}
	got := medianEntry(es)
	want := Entry{Iterations: 100, NsPerOp: 500, BytesPerOp: 32, AllocsPerOp: 1,
		Extra: map[string]float64{"heap-MB": 7, "p99-ns/op": 4}, Samples: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("median entry = %+v, want %+v", got, want)
	}
	// An even count takes the mean of the middle two.
	if got := medianEntry(es[:2]); got.NsPerOp != 600 || got.Samples != 2 {
		t.Errorf("two-sample entry = %+v, want 600 ns/op over 2 samples", got)
	}
	// A single line is recorded as it was, without a sample count.
	if got := medianEntry(es[:1]); !reflect.DeepEqual(got, es[0]) || got.Samples != 0 {
		t.Errorf("one-sample entry = %+v, want %+v", got, es[0])
	}
}
