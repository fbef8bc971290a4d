// Clone is the copy every training pass starts from, so it must carry
// every field: a dropped field silently changes the retrained model (a
// lost Domain stamp turns a basketball model into a soccer one). External
// test package so the shard splitter (which imports hmmm) can supply
// partial models.
package hmmm_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/shard"
)

func requireCloneEqual(t *testing.T, label string, m *hmmm.Model) {
	t.Helper()
	c := m.Clone()
	if !reflect.DeepEqual(c, m) {
		t.Fatalf("%s: clone differs from the original (domain %q vs %q, partial %v vs %v)",
			label, c.Domain, m.Domain, c.Partial, m.Partial)
	}
}

// TestCloneDeepEqual clones full models in every built-in domain, their
// retrained successors, and the partial models a shard split produces.
func TestCloneDeepEqual(t *testing.T) {
	for _, d := range retrievaltest.Domains() {
		m := retrievaltest.RandomModel(t, retrievaltest.Config{
			Seed: 5, Videos: 6, MaxShots: 8, Events: d.NumEvents(), Domain: d, LearnP12: true,
		})
		if m.DomainName() != d.Name {
			t.Fatalf("fixture stamped %q, want %q", m.DomainName(), d.Name)
		}
		requireCloneEqual(t, d.Name, m)

		trained, err := m.Train([]mmm.AccessPattern{{States: []int{0, 1}, Freq: 2}},
			[]mmm.AccessPattern{{States: []int{0, 1}, Freq: 1}}, hmmm.DefaultTrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		if trained.Domain != m.Domain {
			t.Fatalf("%s: training restamped the model %q", d.Name, trained.Domain)
		}
		requireCloneEqual(t, d.Name+" trained", trained)

		shards, err := shard.Split(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range shards {
			if !sh.Model.Partial {
				t.Fatalf("%s shard %d is not partial", d.Name, i)
			}
			requireCloneEqual(t, fmt.Sprintf("%s shard %d", d.Name, i), sh.Model)
		}
	}
}
