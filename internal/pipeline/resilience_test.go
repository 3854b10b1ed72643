package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/resilience"
)

// resilientConfig returns a pipeline config with deterministic resilience
// wiring: fake clock, tight stage budgets, seeded retry policy.
func resilientConfig(workers int, clock resilience.Clock, inj *resilience.Injector) Config {
	return Config{
		Workers:      workers,
		Injector:     inj,
		Clock:        clock,
		StageTimeout: time.Second,
		Retry:        resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Seed: 1},
	}
}

// TestFitPanicQuarantinesKernel is the acceptance pin for graceful
// degradation: an injected per-kernel fit panic yields a completed run,
// a partial model set, a report that names the quarantined kernel with
// its failure class, and no goroutine leaks.
func TestFitPanicQuarantinesKernel(t *testing.T) {
	dir, setup := writeCampaign(t)
	before := runtime.NumGoroutine()

	clock := resilience.NewFakeClock()
	inj := resilience.NewInjector(clock,
		resilience.Fault{Point: "fit:task:0", Kind: resilience.KindPanic},
		resilience.Fault{Point: "fit:task:2", Kind: resilience.KindError, Class: resilience.ClassDegraded},
	)
	p := New(resilientConfig(8, clock, inj))
	res, err := p.Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("run with quarantined fits not marked degraded")
	}

	var panicked, degraded *FitFailure
	for i := range res.Models.Skipped {
		f := &res.Models.Skipped[i]
		switch f.Class {
		case FailurePanic:
			panicked = f
		case FailureDegraded:
			degraded = f
		case FailureUnmodelable:
		default:
			t.Fatalf("unclassified fit failure %+v", f)
		}
	}
	if panicked == nil || degraded == nil {
		t.Fatalf("missing quarantine records: %+v", res.Models.Skipped)
	}
	for _, want := range []string{
		"quarantined kernels (run completed partially):",
		panicked.Callpath, degraded.Callpath,
		"class=panic", "class=degraded",
	} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	assertNoGoroutineLeak(t, before)
}

// TestStageStallRetriesByteIdentical: a stall blowing the stage budget is
// classified retryable, the stage is re-run, and the final report is
// byte-identical to an undisturbed run — retries cannot leak into output.
func TestStageStallRetriesByteIdentical(t *testing.T) {
	dir, setup := writeCampaign(t)
	cold, err := New(Config{Workers: 4}).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}

	clock := resilience.NewFakeClock()
	inj := resilience.NewInjector(clock,
		resilience.Fault{Point: "aggregate", Hit: 0, Kind: resilience.KindStall, Stall: time.Hour})
	col := &Collector{}
	cfg := resilientConfig(4, clock, inj)
	cfg.Observer = col
	res, err := New(cfg).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatalf("stalled run failed after retries: %v", err)
	}
	if res.Report != cold.Report {
		t.Error("retried run's report differs from the undisturbed run")
	}
	attempts := 0
	for _, s := range col.Stats() {
		if s.Stage == StageAggregate {
			attempts++
			if attempts == 1 && !resilience.IsRetryable(s.Err) {
				t.Errorf("first aggregate attempt error = %v, want retryable deadline", s.Err)
			}
		}
	}
	if attempts != 2 {
		t.Errorf("aggregate ran %d times, want 2 (fail + retry)", attempts)
	}
}

// TestStageFatalInjectionFailsTyped: a fatal-class injected stage error
// aborts the run with the typed error intact.
func TestStageFatalInjectionFailsTyped(t *testing.T) {
	dir, setup := writeCampaign(t)
	clock := resilience.NewFakeClock()
	inj := resilience.NewInjector(clock,
		resilience.Fault{Point: "epoch", Kind: resilience.KindError, Class: resilience.ClassFatal})
	_, err := New(resilientConfig(4, clock, inj)).Run(context.Background(), testSpec(dir, setup))
	var typed *resilience.Error
	if !errors.As(err, &typed) || typed.Class != resilience.ClassFatal || typed.Stage != "epoch" {
		t.Fatalf("err = %v, want fatal typed error at epoch", err)
	}
}

// TestCancelFaultKillsRun: a cancel-kind fault at a fit task behaves
// exactly like the caller cancelling at that instant.
func TestCancelFaultKillsRun(t *testing.T) {
	dir, setup := writeCampaign(t)
	before := runtime.NumGoroutine()
	clock := resilience.NewFakeClock()
	inj := resilience.NewInjector(clock,
		resilience.Fault{Point: "fit:task:3", Kind: resilience.KindCancel})
	_, err := New(resilientConfig(8, clock, inj)).Run(context.Background(), testSpec(dir, setup))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNoGoroutineLeak(t, before)
}

// TestCheckpointResumeAfterKillMidFit is the acceptance pin for
// checkpoint/resume: a fault schedule that kills the run mid-Fit,
// followed by a resumed run over the same checkpoint directory, produces
// byte-identical report output to the same campaign run uninterrupted.
func TestCheckpointResumeAfterKillMidFit(t *testing.T) {
	dir, setup := writeCampaign(t)
	cold, err := New(Config{Workers: 4}).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}

	store := &resilience.Store{Dir: t.TempDir()}
	clock := resilience.NewFakeClock()
	inj := resilience.NewInjector(clock,
		resilience.Fault{Point: "fit:task:4", Kind: resilience.KindError, Class: resilience.ClassFatal})
	cfg := resilientConfig(1, clock, inj) // sequential: tasks 0–3 checkpoint before the kill
	cfg.Checkpoint = store
	if _, err := New(cfg).Run(context.Background(), testSpec(dir, setup)); err == nil {
		t.Fatal("killed run succeeded")
	}

	col := &Collector{}
	resumed, err := New(Config{Workers: 4, Checkpoint: store, Resume: true, Observer: col}).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if resumed.Report != cold.Report {
		t.Error("resumed report differs from uninterrupted run")
	}
	reused := 0
	for _, s := range col.Stats() {
		if s.Stage == StageFit {
			reused = s.Counters["reused"]
		}
	}
	if reused < 4 {
		t.Errorf("resume reused %d task records, want ≥ 4", reused)
	}
}

// TestCheckpointInvalidatedByOptionChange: every task key hashes the
// modeling options, so a configuration change can never reuse stale
// records.
func TestCheckpointInvalidatedByOptionChange(t *testing.T) {
	dir, setup := writeCampaign(t)
	store := &resilience.Store{Dir: t.TempDir()}
	if _, err := New(Config{Workers: 4, Checkpoint: store}).Run(context.Background(), testSpec(dir, setup)); err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	cfg := Config{Workers: 4, Checkpoint: store, Resume: true, Observer: col}
	cfg.Modeling.MaxTerms = 2 // non-default hypothesis space
	if _, err := New(cfg).Run(context.Background(), testSpec(dir, setup)); err != nil {
		t.Fatal(err)
	}
	for _, s := range col.Stats() {
		if s.Stage == StageFit && s.Counters["reused"] != 0 {
			t.Fatalf("changed options reused %d records", s.Counters["reused"])
		}
	}
}

// fitCounters returns the counters of the last fit stage a collector saw.
func fitCounters(col *Collector) Counters {
	var c Counters
	for _, s := range col.Stats() {
		if s.Stage == StageFit {
			c = s.Counters
		}
	}
	return c
}

// dropKernel copies the campaign in dir into a fresh directory without
// any event of one kernel, returning the copy and the kernel's name.
func dropKernel(t *testing.T, dir string) (string, string) {
	t.Helper()
	ps, err := (&profile.Store{Dir: dir}).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	victim := ps[0].Trace.Events[0].Name
	out := &profile.Store{Dir: t.TempDir()}
	for _, p := range ps {
		kept := p.Trace.Events[:0]
		for _, e := range p.Trace.Events {
			if e.Name != victim {
				kept = append(kept, e)
			}
		}
		p.Trace.Events = kept
		if err := out.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	return out.Dir, victim
}

// sharedTasks counts b's fit tasks whose series a fits too — the same
// metric, callpath and samples, hence the same content key.
func sharedTasks(a, b *ModelSet) int {
	n := 0
	count := func(ea, eb *measurement.Experiment, metrics []measurement.Metric) {
		for _, m := range metrics {
			for _, path := range eb.Callpaths(m) {
				if sa := ea.Series(m, path); sa != nil && reflect.DeepEqual(sa.Samples, eb.Series(m, path).Samples) {
					n++
				}
			}
		}
	}
	count(a.KernelExperiment, b.KernelExperiment, b.KernelExperiment.Metrics())
	count(a.AppExperiment, b.AppExperiment, []measurement.Metric{measurement.MetricTime})
	return n
}

// TestCheckpointReusedAcrossCampaigns: task records are keyed per task,
// not per campaign, so a resumed campaign reuses every task it shares
// with a different campaign that wrote the store, fits the rest, and
// reports byte-identically to a cold run of itself.
func TestCheckpointReusedAcrossCampaigns(t *testing.T) {
	dirA, setup := writeCampaign(t)
	// Campaign B measures the same runs without one kernel: B has no
	// tasks for that kernel, its category and application series change,
	// and every other kernel's tasks are A's.
	dirB, victim := dropKernel(t, dirA)
	ctx := context.Background()
	cfg := Config{Workers: 4}
	coldA, err := New(cfg).Run(ctx, testSpec(dirA, setup))
	if err != nil {
		t.Fatal(err)
	}
	coldB, err := New(cfg).Run(ctx, testSpec(dirB, setup))
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedTasks(coldA.Models, coldB.Models)

	// resume checkpoints a campaign over first into a fresh store, then
	// resumes one over second, returning the resumed run's report and
	// both fit counters.
	resume := func(first, second string) (string, Counters, Counters) {
		t.Helper()
		store := &resilience.Store{Dir: t.TempDir()}
		colFirst, colSecond := &Collector{}, &Collector{}
		if _, err := New(Config{Workers: 4, Checkpoint: store, Observer: colFirst}).Run(ctx, testSpec(first, setup)); err != nil {
			t.Fatal(err)
		}
		res, err := New(Config{Workers: 4, Checkpoint: store, Resume: true, Observer: colSecond}).Run(ctx, testSpec(second, setup))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report, fitCounters(colFirst), fitCounters(colSecond)
	}

	report, ca, cb := resume(dirA, dirB)
	if cb["tasks"] >= ca["tasks"] || shared == 0 || shared >= cb["tasks"] {
		t.Fatalf("dropping %s: B has %d fit tasks, A has %d, %d shared: want fewer tasks in B, some but not all shared",
			victim, cb["tasks"], ca["tasks"], shared)
	}
	if cb["reused"] != shared {
		t.Errorf("B after A reused %d tasks, want the %d it shares with A", cb["reused"], shared)
	}
	if report != coldB.Report {
		t.Error("B resumed from A's records differs from a cold run of B")
	}

	// The other way round: A reuses B's shared tasks and fits the rest.
	report, _, ca = resume(dirB, dirA)
	if ca["reused"] != shared {
		t.Errorf("A after B reused %d tasks, want the %d it shares with B", ca["reused"], shared)
	}
	if report != coldA.Report {
		t.Error("A resumed from B's records differs from a cold run of A")
	}
}

// TestCheckpointDamagedRecordRefitsOnlyThatTask: damaging one record
// file turns exactly that task into a miss — the resumed run refits it,
// reuses every other record, rewrites the damaged one, and reports
// byte-identically to a cold run.
func TestCheckpointDamagedRecordRefitsOnlyThatTask(t *testing.T) {
	dir, setup := writeCampaign(t)
	ctx := context.Background()
	cold, err := New(Config{Workers: 4}).Run(ctx, testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(store *resilience.Store, key, path string) error{
		"truncated": func(_ *resilience.Store, _, path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"valid envelope, bad record": func(store *resilience.Store, key, _ string) error {
			return store.Put(key, []byte(`{"key":"`+key+`","status":"maybe"}`))
		},
		"valid record, bad model": func(store *resilience.Store, key, _ string) error {
			return store.PutTask(resilience.TaskRecord{Key: key, Status: resilience.StatusFitted, Payload: []byte("not a model")})
		},
	} {
		t.Run(name, func(t *testing.T) {
			store := &resilience.Store{Dir: t.TempDir()}
			if _, err := New(Config{Workers: 4, Checkpoint: store}).Run(ctx, testSpec(dir, setup)); err != nil {
				t.Fatal(err)
			}
			paths, err := filepath.Glob(filepath.Join(store.Dir, "*.ckpt"))
			if err != nil || len(paths) == 0 {
				t.Fatalf("no record files in the store: %v", err)
			}
			sort.Strings(paths)
			path := paths[len(paths)/2]
			if err := damage(store, strings.TrimSuffix(filepath.Base(path), ".ckpt"), path); err != nil {
				t.Fatal(err)
			}

			for run, wantReused := range []int{len(paths) - 1, len(paths)} {
				col := &Collector{}
				resumed, err := New(Config{Workers: 4, Checkpoint: store, Resume: true, Observer: col}).Run(ctx, testSpec(dir, setup))
				if err != nil {
					t.Fatal(err)
				}
				c := fitCounters(col)
				if c["tasks"] != len(paths) {
					t.Fatalf("run %d: %d fit tasks, but the store holds %d records", run, c["tasks"], len(paths))
				}
				if c["reused"] != wantReused {
					t.Errorf("run %d reused %d records, want %d", run, c["reused"], wantReused)
				}
				if resumed.Report != cold.Report {
					t.Errorf("run %d: resumed report differs from the cold run", run)
				}
			}
		})
	}
}

// TestPropFaultScheduleTrichotomy drives randomized fault schedules
// end-to-end and asserts the resilience layer's core invariant: every
// run either completes fully, completes partially with every failure
// classified (and named in the report), or fails with a typed error —
// never a hang, an unclassified partial, or a panic escaping Run.
func TestPropFaultScheduleTrichotomy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline property; skipped in -short")
	}
	dir, setup := writeCampaign(t)
	points := InjectionPoints(40)
	before := runtime.NumGoroutine()

	propcheck.CheckConfig(t, propcheck.Config{Iterations: 30},
		propcheck.Gen[int64]{
			Generate: func(r *propcheck.Rand) int64 { return r.Int64Range(0, 1<<40) },
			Describe: func(seed int64) string {
				return fmt.Sprintf("EDFAULT_SEED=%d schedule=%q", seed,
					resilience.FormatSchedule(resilience.ScheduleFromSeed(seed, points, 4)))
			},
		},
		func(seed int64) error {
			clock := resilience.NewFakeClock()
			sched := resilience.ScheduleFromSeed(seed, points, 4)
			inj := resilience.NewInjector(clock, sched...)
			p := New(resilientConfig(4, clock, inj))
			res, err := p.Run(context.Background(), testSpec(dir, setup))
			if err != nil {
				// Outcome 3: typed failure. Anything else is a bug.
				var typed *resilience.Error
				if errors.As(err, &typed) || errors.Is(err, context.Canceled) ||
					errors.Is(err, context.DeadlineExceeded) {
					return nil
				}
				// Historical sentinel errors (e.g. no application model
				// after quarantining the app fit) are typed enough: they
				// classify as fatal.
				if resilience.ClassOf(err) == resilience.ClassFatal {
					return nil
				}
				return fmt.Errorf("untyped failure: %w", err)
			}
			if res.Report == "" {
				return errors.New("completed run produced no report")
			}
			for _, f := range res.Models.Skipped {
				switch f.Class {
				case FailurePanic, FailureDegraded:
					if !strings.Contains(res.Report, f.Callpath) {
						return fmt.Errorf("report does not name quarantined kernel %s", f.Callpath)
					}
				case FailureUnmodelable:
				default:
					return fmt.Errorf("unclassified failure %+v", f)
				}
			}
			if res.Degraded() && !strings.Contains(res.Report, "quarantined kernels") {
				return errors.New("partial run's report has no quarantine section")
			}
			return nil
		})
	assertNoGoroutineLeak(t, before)
}

// TestPropResumeByteIdentical: interrupt the fit stage at an arbitrary
// task with a fatal fault, then resume from the checkpoint — the final
// report must be byte-identical to the uninterrupted run, for every
// interruption point.
func TestPropResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline property; skipped in -short")
	}
	dir, setup := writeCampaign(t)
	cold, err := New(Config{Workers: 4}).Run(context.Background(), testSpec(dir, setup))
	if err != nil {
		t.Fatal(err)
	}
	// Total fit tasks = fitted kernel models + app models + recorded
	// skips, so the generated interruption point always lands on a task.
	nTasks := cold.Models.KernelCount() + len(cold.Models.App) + len(cold.Models.Skipped)

	propcheck.CheckConfig(t, propcheck.Config{Iterations: 10},
		propcheck.IntRange(0, nTasks-1),
		func(task int) error {
			store := &resilience.Store{Dir: t.TempDir()}
			clock := resilience.NewFakeClock()
			inj := resilience.NewInjector(clock, resilience.Fault{
				Point: fmt.Sprintf("fit:task:%d", task),
				Kind:  resilience.KindError, Class: resilience.ClassFatal,
			})
			cfg := resilientConfig(4, clock, inj)
			cfg.Checkpoint = store
			_, ierr := New(cfg).Run(context.Background(), testSpec(dir, setup))
			if ierr == nil {
				return fmt.Errorf("fault at task %d did not interrupt the run", task)
			}
			resumed, rerr := New(Config{Workers: 4, Checkpoint: store, Resume: true}).Run(context.Background(), testSpec(dir, setup))
			if rerr != nil {
				return fmt.Errorf("resume after kill at task %d: %w", task, rerr)
			}
			if !bytes.Equal([]byte(resumed.Report), []byte(cold.Report)) {
				return fmt.Errorf("resume after kill at task %d diverged from cold run", task)
			}
			return nil
		})
}
