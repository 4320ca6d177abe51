package tensor

import "sync"

// Parallel work splitting. Work is partitioned over contiguous blocks of
// the output (column panels for the packed GEMM, rows for callers of
// ParallelRows), one goroutine per block: every output element is
// produced by exactly one worker with the kernel's fixed per-element
// accumulation order, so results are bitwise identical to a serial run
// for ANY worker count. That invariant is what lets the shared-read
// inference path parallelize without perturbing seeded evaluation
// numbers.

// ParallelRows partitions [0, rows) into at most workers near-equal
// contiguous blocks and runs fn(lo, hi) for each block on its own
// goroutine, returning when all blocks are done. workers ≤ 1 (or a
// single row) runs fn inline with no goroutine overhead.
func ParallelRows(rows, workers int, fn func(lo, hi int)) {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		if rows > 0 {
			fn(0, rows)
		}
		return
	}
	var wg sync.WaitGroup
	base, extra := rows/workers, rows%workers
	lo := 0
	for i := 0; i < workers; i++ {
		w := base
		if i < extra {
			w++
		}
		hi := lo + w
		wg.Add(1)
		go func(lo, hi int) { //hdc:allow hotpathalloc one goroutine per worker is the fan-out design; the single-worker path spawns none
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}
