package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		const n = 100
		counts := make([]int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error { t.Fatal("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach(context.Background(), 1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v, want tasks 0..3 only", ran)
	}
}

func TestForEachParallelSurfacesTaskError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(context.Background(), 4, 50, func(i int) error {
		if i == 20 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 4, 10, func(int) error { t.Error("task ran after cancellation"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForEachCancellationStopsPromptly cancels mid-run from inside a task
// and asserts the pool drains without running the full task set, the
// caller sees ctx.Err(), and no worker goroutine leaks.
func TestForEachCancellationStopsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed int32
		const n = 10_000
		err := ForEach(ctx, workers, n, func(i int) error {
			if atomic.AddInt32(&executed, 1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := atomic.LoadInt32(&executed); got >= n {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, got)
		}
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak polls until the goroutine count returns to (or
// below) the baseline, failing after a deadline. ForEach must join all
// workers before returning, so only scheduler lag is tolerated.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
