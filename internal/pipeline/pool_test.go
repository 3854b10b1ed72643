package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"extradeep/internal/resilience"
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

// TestForEachPanicSameAtEveryWorkerCount: a panicking task reaches the
// stage's recover as the same typed fatal at every pool size, instead of
// killing the process from a worker goroutine when workers > 1.
func TestForEachPanicSameAtEveryWorkerCount(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4} {
		p := New(Config{Workers: workers})
		err := p.runStage(context.Background(), StageAggregate, func(ctx context.Context) (Counters, error) {
			return nil, ForEach(ctx, workers, 8, func(i int) error {
				if i == 3 {
					panic("task 3 exploded")
				}
				return nil
			})
		})
		if err == nil || resilience.ClassOf(err) != resilience.ClassFatal {
			t.Fatalf("workers=%d: err = %v, want a fatal stage error", workers, err)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Errorf("workers=%d: %q, want %q as with one worker", workers, err, want)
		}
	}
}

// TestForEachLowestIndexFailureWins: after the pool drains, a lower-index
// error outranks a higher-index panic and a lower-index panic outranks a
// higher-index error, as in the sequential loop. The gates make both
// tasks fail at every pool size before either result is examined.
func TestForEachLowestIndexFailureWins(t *testing.T) {
	for _, panicFirst := range []bool{false, true} {
		for _, workers := range []int{2, 4} {
			var arrived atomic.Int32
			gate := make(chan struct{})
			fail := func(i int) error {
				if arrived.Add(1) == 2 {
					close(gate)
				}
				<-gate // both failing tasks are running
				if (i == 0) == panicFirst {
					panic("boom")
				}
				return errors.New("task error")
			}
			got := func() (err error, pv any) {
				defer func() { pv = recover() }()
				return ForEach(context.Background(), workers, 2, fail), nil
			}
			err, pv := got()
			if panicFirst && (pv != "boom" || err != nil) {
				t.Errorf("workers=%d: err=%v panic=%v, want the task-0 panic", workers, err, pv)
			}
			if !panicFirst && (pv != nil || err == nil || err.Error() != "task error") {
				t.Errorf("workers=%d: err=%v panic=%v, want the task-0 error", workers, err, pv)
			}
		}
	}
}
