package resilience

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultKind enumerates the runtime faults the injector can produce at a
// point: the four ways a real stage dies on a shared cluster.
type FaultKind int

const (
	// KindError makes the point return a typed error of the fault's
	// Class (fatal aborts the run, degraded quarantines the unit).
	KindError FaultKind = iota
	// KindPanic makes the point panic, exercising the recover paths.
	KindPanic
	// KindStall makes the point sleep for Stall on the injector's clock,
	// exercising stage deadlines (under a budget the stall surfaces as
	// context.DeadlineExceeded; without one it just delays).
	KindStall
	// KindCancel cancels the run's armed cancel function, simulating the
	// caller killing the run at exactly this point.
	KindCancel
)

// String names the kind in schedule syntax.
func (k FaultKind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindCancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault schedules one fault at one hit of one injection point.
type Fault struct {
	// Point is the injection-point name, e.g. "fit" (stage entry) or
	// "fit:task:3" (the fourth fit task).
	Point string
	// Hit selects which invocation of the point fires the fault
	// (0-based), counted over the injector's lifetime: a pipeline run
	// hits each point at most once, so a Hit above 0 fires only in a
	// later run that shares the injector.
	Hit int
	// Kind is what happens.
	Kind FaultKind
	// Class types the injected error for KindError (ignored otherwise).
	Class Class
	// Stall is the sleep for KindStall (ignored otherwise).
	Stall time.Duration
}

// String renders the fault in schedule syntax, the inverse of
// ParseSchedule.
func (f Fault) String() string {
	s := fmt.Sprintf("%s@%d=", f.Point, f.Hit)
	switch f.Kind {
	case KindError:
		if f.Class == ClassFatal {
			return s + "error"
		}
		return s + f.Class.String()
	case KindStall:
		return s + "stall:" + f.Stall.String()
	default:
		return s + f.Kind.String()
	}
}

// Injector fires scheduled faults at named points of a run. The schedule
// is immutable after construction and hit counting is the only state, so
// fault behaviour is a deterministic function of (schedule, sequence of
// At calls) — a schedule that broke a run once breaks it identically
// forever, like an EDCHECK_SEED recipe. A nil *Injector is a valid no-op,
// which is how production runs pay nothing for the hook.
type Injector struct {
	mu     sync.Mutex
	clock  Clock
	faults []Fault
	hits   map[string]int
	fired  []string
	cancel context.CancelCauseFunc
}

// NewInjector builds an injector over the schedule. clock paces injected
// stalls; nil means the wall clock.
func NewInjector(clock Clock, schedule ...Fault) *Injector {
	if clock == nil {
		clock = WallClock{}
	}
	return &Injector{
		clock:  clock,
		faults: append([]Fault(nil), schedule...),
		hits:   make(map[string]int),
	}
}

// Arm registers the run's cancel function, the target of KindCancel
// faults. Safe on a nil injector.
func (in *Injector) Arm(cancel context.CancelCauseFunc) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cancel = cancel
}

// At is the injection hook: stages and tasks call it with their point
// name. It counts the hit, fires a scheduled fault if one matches, and
// observes ctx — a point never outlives its context silently, which is
// how "observe cancellation at chosen points" is enforced even with an
// empty schedule. Safe (and free) on a nil injector except for the
// context check.
func (in *Injector) At(ctx context.Context, point string) error {
	if in == nil {
		return CauseOrErr(ctx)
	}
	if err := CauseOrErr(ctx); err != nil {
		return err
	}
	fault, clock, cancel, hit := in.match(point)
	if fault == nil {
		return nil
	}
	switch fault.Kind {
	case KindError:
		return Errorf(fault.Class, point, "injected %s fault (hit %d)", fault.Class, hit)
	case KindPanic:
		//edlint:ignore libpanic the fault IS the panic: KindPanic exists to exercise callers' recover paths
		panic(fmt.Sprintf("resilience: injected panic at %s (hit %d)", point, hit))
	case KindStall:
		if err := clock.Sleep(ctx, fault.Stall); err != nil {
			return err
		}
		return CauseOrErr(ctx)
	case KindCancel:
		if cancel != nil {
			cancel(context.Canceled)
		}
		return CauseOrErr(ctx)
	default:
		return Errorf(ClassFatal, point, "unknown fault kind %d", int(fault.Kind))
	}
}

// match counts the point's hit and, when a fault is scheduled for it,
// marks it fired and returns it with the clock and armed cancel captured
// under the lock — the fault itself must execute unlocked (stalls sleep,
// panics unwind).
func (in *Injector) match(point string) (*Fault, Clock, context.CancelCauseFunc, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	hit := in.hits[point]
	in.hits[point] = hit + 1
	for i := range in.faults {
		if in.faults[i].Point == point && in.faults[i].Hit == hit {
			in.fired = append(in.fired, in.faults[i].String())
			return &in.faults[i], in.clock, in.cancel, hit
		}
	}
	return nil, nil, nil, hit
}

// Fired returns the faults that actually fired, in sorted schedule
// syntax (sorted because concurrent tasks may hit points in any order).
func (in *Injector) Fired() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := append([]string(nil), in.fired...)
	sort.Strings(out)
	return out
}

// ParseSchedule parses the EDFAULT_SCHEDULE syntax: semicolon-separated
// `point@hit=kind` entries where kind is one of
//
//	error            fatal-class error
//	degraded         degraded-class error
//	panic            panic at the point
//	stall:<duration> sleep, e.g. stall:2s
//	cancel           cancel the armed run context
//
// Example: "fit:task:3@0=panic;ingest@1=degraded;fit@0=stall:500ms".
func ParseSchedule(s string) ([]Fault, error) {
	var out []Fault
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		at := strings.LastIndex(entry, "@")
		eq := strings.Index(entry, "=")
		if at < 0 || eq < at {
			return nil, fmt.Errorf("resilience: bad schedule entry %q (want point@hit=kind)", entry)
		}
		f := Fault{Point: entry[:at]}
		if f.Point == "" {
			return nil, fmt.Errorf("resilience: empty point in schedule entry %q", entry)
		}
		hit, err := strconv.Atoi(entry[at+1 : eq])
		if err != nil || hit < 0 {
			return nil, fmt.Errorf("resilience: bad hit count in schedule entry %q", entry)
		}
		f.Hit = hit
		kind := entry[eq+1:]
		switch {
		case kind == "error":
			f.Kind, f.Class = KindError, ClassFatal
		case kind == "degraded":
			f.Kind, f.Class = KindError, ClassDegraded
		case kind == "panic":
			f.Kind = KindPanic
		case kind == "cancel":
			f.Kind = KindCancel
		case strings.HasPrefix(kind, "stall:"):
			d, err := time.ParseDuration(kind[len("stall:"):])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("resilience: bad stall duration in schedule entry %q", entry)
			}
			f.Kind, f.Stall = KindStall, d
		default:
			return nil, fmt.Errorf("resilience: unknown fault kind %q in schedule entry %q", kind, entry)
		}
		out = append(out, f)
	}
	return out, nil
}

// FormatSchedule renders a schedule back to the EDFAULT_SCHEDULE syntax,
// so a failing generated schedule prints as a ready-to-paste replay.
func FormatSchedule(schedule []Fault) string {
	parts := make([]string, len(schedule))
	for i, f := range schedule {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// ScheduleFromSeed derives a deterministic pseudo-random schedule of up
// to maxFaults faults over the given points: the EDFAULT_SEED knob. The
// derivation uses the SplitMix64 mixer — no randomness source — so a
// seed names one schedule forever. Error faults draw their class from
// {fatal, degraded}.
func ScheduleFromSeed(seed int64, points []string, maxFaults int) []Fault {
	if maxFaults <= 0 || len(points) == 0 {
		return nil
	}
	draw := func(i int, n uint64) uint64 {
		if n == 0 {
			return 0
		}
		return splitmix64(uint64(seed)^(uint64(i)+1)*0x9e3779b97f4a7c15) % n
	}
	n := 1 + int(draw(0, uint64(maxFaults)))
	out := make([]Fault, 0, n)
	for i := 1; i <= n; i++ {
		f := Fault{
			Point: points[draw(4*i, uint64(len(points)))],
			Hit:   int(draw(4*i+1, 2)),
		}
		switch draw(4*i+2, 4) {
		case 0:
			f.Kind = KindError
			if draw(4*i+3, 2) == 1 {
				f.Class = ClassDegraded
			}
		case 1:
			f.Kind = KindPanic
		case 2:
			f.Kind = KindStall
			f.Stall = time.Duration(1+draw(4*i+3, 2000)) * time.Millisecond
		case 3:
			f.Kind = KindCancel
		}
		out = append(out, f)
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer, the same mixer propcheck uses
// for per-case seeds.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
