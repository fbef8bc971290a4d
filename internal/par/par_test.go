package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// eachProcs runs fn under each GOMAXPROCS in {1, 2, 3, 4, 5, 7, 16,
// 64, NumCPU} — the worker counts For and ForChunks fan out over, which
// include uneven splits and, for n = 100 at 64, a rounded-up chunk size
// giving fewer chunks than workers — and restores the old value.
func eachProcs(t *testing.T, fn func(procs int)) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2, 3, 4, 5, 7, 16, 64, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	eachProcs(t, func(procs int) {
		const n = 100
		hits := make([]int32, n)
		For(n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d hit %d times", procs, i, h)
			}
		}
	})
}

func TestForChunksPartition(t *testing.T) {
	eachProcs(t, func(procs int) {
		const n = 17
		covered := make([]int32, n)
		var chunks int32
		ForChunks(n, func(lo, hi int) {
			if lo >= hi || lo < 0 || hi > n {
				t.Errorf("bad chunk [%d, %d)", lo, hi)
			}
			atomic.AddInt32(&chunks, 1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		if int(chunks) > procs {
			t.Errorf("GOMAXPROCS=%d: %d chunks", procs, chunks)
		}
		for i, h := range covered {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d covered %d times", procs, i, h)
			}
		}
	})
}

func TestForZeroItems(t *testing.T) {
	called := false
	ForChunks(0, func(lo, hi int) { called = true })
	if called {
		t.Error("ForChunks ran a chunk for zero items")
	}
}

// TestForDeterministicOutput is the package contract: disjoint-slot
// writes produce identical output for every GOMAXPROCS.
func TestForDeterministicOutput(t *testing.T) {
	const n = 257
	ref := make([]int, n)
	for i := range ref {
		ref[i] = i * i
	}
	eachProcs(t, func(procs int) {
		out := make([]int, n)
		For(n, func(i int) { out[i] = i * i })
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d: slot %d = %d, want %d", procs, i, out[i], ref[i])
			}
		}
	})
}

func TestFirstErr(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	if err := FirstErr([]error{nil, nil}); err != nil {
		t.Errorf("FirstErr(all nil) = %v", err)
	}
	if err := FirstErr([]error{nil, e1, e2}); err != e1 {
		t.Errorf("FirstErr = %v, want first non-nil", err)
	}
}
