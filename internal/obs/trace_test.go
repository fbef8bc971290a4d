package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndTotals(t *testing.T) {
	tr := NewTrace()
	end := tr.Span("order")
	time.Sleep(time.Millisecond)
	end()
	tr.Record("search", time.Now(), 5*time.Millisecond)
	tr.Record("search", time.Now(), 3*time.Millisecond)

	spans := tr.spans
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Name != "order" || spans[0].Dur <= 0 {
		t.Errorf("order span wrong: %+v", spans[0])
	}
	totals := tr.Totals()
	if totals["search"] != 8*time.Millisecond {
		t.Errorf("search total = %v, want 8ms", totals["search"])
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Record("stage", time.Now(), time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.spans); got != 8*200 {
		t.Fatalf("spans = %d, want %d", got, 8*200)
	}
	if tr.Totals()["stage"] != 8*200*time.Microsecond {
		t.Fatalf("total = %v", tr.Totals()["stage"])
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	if !l.Enabled() || l.threshold != 10*time.Millisecond {
		t.Fatal("slow log should be enabled")
	}

	type entry struct {
		Pattern    string  `json:"pattern"`
		DurationMS float64 `json:"duration_ms"`
	}
	if ok, err := l.Record(5*time.Millisecond, entry{"fast", 5}); ok || err != nil {
		t.Fatalf("fast query recorded: ok=%v err=%v", ok, err)
	}
	if ok, err := l.Record(15*time.Millisecond, entry{"slow", 15}); !ok || err != nil {
		t.Fatalf("slow query not recorded: ok=%v err=%v", ok, err)
	}
	if ok, _ := l.Record(10*time.Millisecond, entry{"edge", 10}); !ok {
		t.Fatal("threshold is inclusive")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2: %q", len(lines), buf.String())
	}
	var e entry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Pattern != "slow" || e.DurationMS != 15 {
		t.Errorf("entry = %+v", e)
	}
}

func TestSlowLogDisabled(t *testing.T) {
	if NewSlowLog(nil, time.Second) != nil {
		t.Error("nil writer must disable")
	}
	if NewSlowLog(&bytes.Buffer{}, 0) != nil {
		t.Error("zero threshold must disable")
	}
	if NewSlowLog(&bytes.Buffer{}, -1) != nil {
		t.Error("negative threshold must disable")
	}
}
