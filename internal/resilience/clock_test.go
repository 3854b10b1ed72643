package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWallClockSleepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (WallClock{}).Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on dead context = %v, want Canceled", err)
	}
	if err := (WallClock{}).Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero-duration Sleep = %v", err)
	}
}

func TestFakeClockSleepAdvancesAndRecords(t *testing.T) {
	c := NewFakeClock()
	if err := c.Sleep(context.Background(), 100*time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if err := c.Sleep(context.Background(), 250*time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got := c.Now(); got != 350*time.Millisecond {
		t.Fatalf("Now = %v, want 350ms", got)
	}
}

func TestFakeClockTimeoutExpiresOnAdvance(t *testing.T) {
	c := NewFakeClock()
	ctx, cancel := c.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if ctx.Err() != nil {
		t.Fatal("timeout context dead before any advance")
	}
	if err := c.Sleep(context.Background(), 999*time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("timeout fired before its deadline")
	}
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	<-ctx.Done()
	if cause := context.Cause(ctx); !errors.Is(cause, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", cause)
	}
}

func TestFakeClockSleepOnTimeoutContextReportsDeadline(t *testing.T) {
	c := NewFakeClock()
	ctx, cancel := c.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The sleep itself blows the budget: the advance expires the context
	// and Sleep must surface the deadline cause.
	err := c.Sleep(ctx, time.Second)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sleep past deadline = %v, want DeadlineExceeded", err)
	}
}

func TestFakeClockCancelBeforeDeadline(t *testing.T) {
	c := NewFakeClock()
	ctx, cancel := c.WithTimeout(context.Background(), time.Second)
	cancel()
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		t.Fatalf("cause after manual cancel = %v, want Canceled", cause)
	}
	// The expired registration must be gone: advancing past the deadline
	// must not re-cancel with a different cause.
	if err := c.Sleep(context.Background(), 2*time.Second); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		t.Fatalf("cause flipped to %v after advance", cause)
	}
}

func TestFakeClockZeroTimeoutExpiresImmediately(t *testing.T) {
	c := NewFakeClock()
	ctx, cancel := c.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	if cause := context.Cause(ctx); !errors.Is(cause, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", cause)
	}
}

func TestFakeClockConcurrentSleepers(t *testing.T) {
	c := NewFakeClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Sleep(context.Background(), time.Millisecond)
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 8*time.Millisecond {
		t.Fatalf("Now = %v, want 8ms", got)
	}
}
