// Domain-stamp persistence tests: the stamp must survive both snapshot
// formats and training, and appear (with the right vocabulary) in the
// JSON export. internal/boot's TestLoadModel checks the stamp gates
// loading.
package store

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/videomodel"
)

func basketballModel(t *testing.T) *hmmm.Model {
	t.Helper()
	d := videomodel.Basketball()
	return retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: 13, Videos: 3, MaxShots: 8, Events: d.NumEvents(), Domain: d, LearnP12: true,
	})
}

func TestDomainStampRoundTrip(t *testing.T) {
	m := basketballModel(t)
	if m.DomainName() != "basketball" {
		t.Fatalf("model stamped %q, want basketball", m.DomainName())
	}
	savers := map[string]func(string, *hmmm.Model) error{
		"full":    SaveModel,
		"compact": SaveModelCompact,
	}
	for name, save := range savers {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.gob")
			if err := save(path, m); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.DomainName() != "basketball" {
				t.Errorf("%s snapshot lost stamp: %q", name, loaded.DomainName())
			}
		})
	}
}

// TestRetrainedModelKeepsDomain saves a retrained basketball model: the
// stamp must survive training, so a basketball deployment still loads it.
func TestRetrainedModelKeepsDomain(t *testing.T) {
	m, err := basketballModel(t).Train([]mmm.AccessPattern{{States: []int{0, 1}, Freq: 2}}, nil,
		hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "retrained.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DomainName() != "basketball" {
		t.Errorf("retrained basketball model stamped %q", loaded.DomainName())
	}
}

// TestLegacyEmptyStampLoadsAsSoccer pins backward compatibility:
// pre-domain snapshots carry an empty stamp and load as soccer models.
func TestLegacyEmptyStampLoadsAsSoccer(t *testing.T) {
	_, m := fixtures(t)
	m.Domain = "" // simulate a snapshot written before domain stamping
	path := filepath.Join(t.TempDir(), "legacy.gob")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DomainName() != "soccer" {
		t.Errorf("legacy snapshot loads as %q, want soccer", loaded.DomainName())
	}
}

func TestExportModelJSONDomain(t *testing.T) {
	m := basketballModel(t)
	var buf bytes.Buffer
	if err := ExportModelJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Domain string   `json:"domain"`
		Events []string `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Domain != "basketball" {
		t.Errorf("export domain = %q", out.Domain)
	}
	d := videomodel.Basketball()
	if len(out.Events) != m.NumConcepts() {
		t.Fatalf("%d event names for %d concepts", len(out.Events), m.NumConcepts())
	}
	for i, name := range out.Events {
		if want := d.EventName(videomodel.EventFromIndex(i)); name != want {
			t.Errorf("event %d = %q, want %q", i, name, want)
		}
	}
}
