package pipeline

import (
	"context"
	"sync"
)

// ForEach runs fn(0..n-1) with at most `workers` goroutines (≤ 0 means
// runtime.GOMAXPROCS(0)) and returns the first error in task order. It
// is the module's one worker pool: the pipeline's ingest, aggregate and
// fit stages and edserve's upload validation all fan out through it.
//
// Determinism contract: with workers == 1 the tasks run strictly
// sequentially on the calling goroutine. With workers > 1 the tasks may
// run in any order, so fn must write its result into a slot indexed by i
// and must not depend on, or mutate, state shared with other tasks. On
// success the set of executed tasks is always exactly {0..n-1}, so any
// reduction over the index-addressed results is order-independent.
//
// Cancellation contract: when ctx is cancelled, no new task starts, the
// pool drains promptly, all worker goroutines exit before ForEach
// returns, and ctx.Err() is returned. When a task returns an error, the
// remaining tasks are cancelled and the error with the smallest task
// index among the tasks that ran is returned.
//
// Panic contract: a task's panic behaves the same at every worker count.
// With workers == 1 it unwinds through ForEach directly. With workers > 1
// the worker recovers it into the task's slot, the pool is cancelled and
// drained, and ForEach re-raises the panic value on the caller's
// goroutine if the lowest-index failed task panicked; a lower-index error
// is returned instead. Either way a caller's recover (e.g. a pipeline
// stage's) sees it, rather than the process dying on a worker goroutine.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make(chan int)
	// One slot per task: no locking, no ordering races.
	errs := make([]error, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				if poolCtx.Err() != nil {
					return
				}
				if runTask(fn, i, &errs[i], &panics[i]) {
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case tasks <- i:
		case <-poolCtx.Done():
			break feed
		}
	}
	close(tasks)
	wg.Wait()

	// A panic is re-raised when it is the lowest-index failure, as the
	// sequential loop would have raised it. The enclosing context's
	// cancellation outranks task errors: a caller that cancelled mid-run
	// must see its own ctx.Err(), not whichever task happened to fail
	// while draining.
	for i, err := range errs {
		if err != nil {
			break
		}
		if panics[i] != nil {
			//edlint:ignore libpanic re-raises a task's own panic on the caller's goroutine, where it would have unwound with one worker
			panic(panics[i])
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask runs fn(i) on a worker goroutine, recording its error in *err
// or its panic value in *pv, and reports whether it failed.
func runTask(fn func(int) error, i int, err *error, pv *any) (failed bool) {
	defer func() {
		if r := recover(); r != nil {
			*pv, failed = r, true
		}
	}()
	*err = fn(i)
	return *err != nil
}
