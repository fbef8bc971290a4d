package store

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
)

// goldenRecords names the records TestRecordBytesFrozen writes, in the
// order it writes them, with the writer and the model of each.
var goldenRecords = []struct {
	file    string
	save    func(string, *hmmm.Model) error
	trained bool
}{
	{"model_untrained.rec", SaveModel, false},
	{"cmodel_untrained.rec", SaveModelCompact, false},
	{"model_trained.rec", SaveModel, true},
	{"cmodel_trained.rec", SaveModelCompact, true},
}

// TestRecordBytesFrozen pins the bytes SaveModel and SaveModelCompact
// write, for an untrained and a trained fixture model, to the goldens in
// testdata/records. gob numbers its types per process in the order it
// first meets them, so a record's bytes depend on what the process
// encoded before: the test reruns itself as a child process that writes
// nothing but the four records, in goldenRecords order, into the
// directory named by its one positional argument. To regenerate the
// goldens, build the test binary with go test -c and run it with
// -test.run='^TestRecordBytesFrozen$' and that directory.
func TestRecordBytesFrozen(t *testing.T) {
	if dir := flag.Arg(0); dir != "" {
		writeGoldenRecords(t, dir)
		return
	}
	dir := t.TempDir()
	out, err := exec.Command(os.Args[0], "-test.run=^TestRecordBytesFrozen$", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	for _, g := range goldenRecords {
		got, err := os.ReadFile(filepath.Join(dir, g.file))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "records", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes written differ from the %d-byte golden", g.file, len(got), len(want))
		}
	}
}

// writeGoldenRecords saves the fixture model and a trained copy of it
// as goldenRecords lists.
func writeGoldenRecords(t *testing.T, dir string) {
	_, m := fixtures(t)
	// Two shot patterns inside video 0 rewrite its A1 rows, one crosses
	// into video 1, and two video patterns rewrite A2 and Π2.
	lo, _ := m.VideoStates(1)
	shot := []mmm.AccessPattern{
		{States: []int{0, 1, 2}, Freq: 3},
		{States: []int{1, 3}, Freq: 1},
		{States: []int{2, lo, lo + 1}, Freq: 2},
	}
	video := []mmm.AccessPattern{{States: []int{0, 1}, Freq: 2}, {States: []int{2}, Freq: 1}}
	trained, err := m.Train(shot, video, hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenRecords {
		model := m
		if g.trained {
			model = trained
		}
		if err := g.save(filepath.Join(dir, g.file), model); err != nil {
			t.Fatal(err)
		}
	}
}
