// Package par provides the deterministic fan-out primitives the offline
// pipelines share: model construction, engine cache builds, dataset
// synthesis and ingest, and the shard and federation scatters all fan
// independent work items over one goroutine per CPU (GOMAXPROCS).
//
// Determinism rule: callers partition work into index ranges whose
// outputs land in disjoint, preallocated slots (a slice element, a
// matrix row, a per-item error slot). Workers never reduce into shared
// accumulators, and chunk boundaries never change what any single index
// computes — so the combined output is bit-identical for every
// GOMAXPROCS, including 1.
package par

import (
	"runtime"
	"sync"
)

// For runs fn(i) for every i in [0, n), fanning contiguous index chunks
// out over at most GOMAXPROCS goroutines. fn must write only to slots
// owned by index i. With one effective worker it degenerates to a plain
// loop on the calling goroutine. For returns once every call has
// completed.
func For(n int, fn func(i int)) {
	ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunks partitions [0, n) into one contiguous [lo, hi) chunk per
// worker — min(GOMAXPROCS, n) of them — and runs fn on each chunk
// concurrently. Chunked assignment keeps each worker's writes contiguous
// (cache-friendly for dense row-major fills). fn must write only to
// slots owned by [lo, hi).
func ForChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// FirstErr returns the lowest-index non-nil error of a per-item error
// slice — the error a serial loop over the same items would have
// returned first — or nil.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
