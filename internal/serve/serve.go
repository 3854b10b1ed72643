// Package serve is Extra-Deep's modeling-as-a-service layer: a
// long-running HTTP server wrapping the staged analysis pipeline
// (Ingest → Aggregate → EpochExtrapolate → Fit → Analyze → Report) so
// practitioners can query fitted models repeatedly — predict runtime,
// speedup, efficiency and cost (Eqs. 11–14) for new configurations —
// without re-running a batch analysis per question.
//
// Clients POST profile files (the same JSON/CSV formats internal/ingest
// quarantine-validates) to /v1/apps/{app}/profiles; the server spools
// accepted files per application, coalesces bursts of uploads into one
// fit campaign per application, and answers
// GET /v1/apps/{app}/{predict,speedup,efficiency,cost,models,report}
// from an atomically swapped fitted-model snapshot. The architecture:
//
//   - Store: one mutex over the application map, held only to look up
//     or insert an application. Per-application state carries the
//     upload spool bookkeeping plus an atomic.Pointer to the current
//     Snapshot — queries load the pointer once and answer entirely from
//     that value, so a response always reflects one fully fitted
//     campaign, never a torn mix of two.
//
//   - Fit scheduling: an upload marks its application dirty and ensures
//     exactly one fit loop goroutine runs for it. The loop clears the
//     dirty flag, optionally waits one coalescing window (absorbing the
//     rest of a burst), runs the full pipeline over the spool directory,
//     and publishes the new snapshot; if more uploads arrived meanwhile
//     the loop goes around again, so N concurrent uploads cost at most
//     two campaigns, not N. Campaign concurrency across applications is
//     bounded by a semaphore; upload validation and the per-campaign
//     decode and fit fan-outs reuse internal/pipeline's bounded ForEach
//     pool.
//
//   - Parity by construction: the fit path IS the batch path. Each
//     upload is spooled, synced, as one tar segment holding its
//     documents verbatim under their canonical file names, and the
//     campaign runs pipeline.Run over the application's documents with
//     the same options the extradeep CLI would use, so the fitted
//     ModelSet is byte-identical to a batch run over the spool unpacked
//     into one directory (TestPropServeFitParity pins it).
//
//   - Decode once: every profile an upload admits was already decoded to
//     validate it. The decoded profiles wait, with their bytes, for the
//     next campaign, whose ingest reuses one only when the segment entry
//     still holds exactly those bytes; anything else — an entry changed
//     on disk, every entry after a restart — is decoded from the spool.
//
//   - Incremental re-fit: with a checkpoint store configured, every
//     campaign stores each fit task as its own record keyed by the
//     task's content, in the one store every application shares; with
//     Resume, adding one configuration re-fits only the tasks whose
//     content keys changed — unchanged kernels, and any task another
//     application already fitted on identical series, are reused
//     byte-identically.
//
// All handlers honor context cancellation and a per-request deadline
// budget derived through resilience.Clock; fit campaigns run each stage
// once under the pipeline's stage timeouts. The package is policed by
// the sendguard and wallclock analyzers: every channel send races
// cancellation, every lock release is deferred, and no wall-clock value
// can reach a model or a serialized response.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"extradeep/internal/epoch"
	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
)

// Config assembles a Server. SpoolDir and Setup are required; everything
// else has serving defaults.
//
// The embedded pipeline.Config is the batch pipeline's configuration,
// run as is by every campaign: Workers also bounds the validation of one
// upload, Clock also paces request deadlines and coalescing windows, and
// CheckpointDir is one content-keyed record directory shared by every
// application (with Resume, a campaign reuses every fit task any earlier
// campaign stored, whichever application it belonged to); New creates
// it as it creates SpoolDir.
type Config struct {
	pipeline.Config

	// SpoolDir is the root of the per-application upload spool: each
	// accepted upload is written, synced, as one tar segment
	// SpoolDir/<app>/<seq>.tar holding its documents verbatim under
	// their canonical file names, and fit campaigns ingest every
	// segment of the application (plus any loose profile files beside
	// them). The spool is the server's durable input state — a
	// restarted server rescans it and re-fits every application found.
	SpoolDir string
	// Setup derives the training-setup values (Section 2.3.1) per
	// configuration, exactly as the batch CLI's -benchmark/-batch flags
	// do. Required.
	Setup epoch.SetupFunc
	// Analyze configures the Section 3 questions answered per campaign.
	Analyze pipeline.AnalyzeOptions
	// MaxCampaigns bounds how many applications may fit concurrently
	// (default 2). The per-campaign fan-out is bounded separately by
	// Workers.
	MaxCampaigns int
	// RequestTimeout is the per-request deadline budget applied to every
	// handler (default 30s; negative disables).
	RequestTimeout time.Duration
	// CoalesceWindow is how long a fit loop waits after the first dirty
	// mark before starting a campaign, so a burst of uploads lands in one
	// re-fit (default 0: fit immediately).
	CoalesceWindow time.Duration
	// MaxUploadBytes bounds one upload request body (default 64 MiB).
	MaxUploadBytes int64
}

func (c Config) maxCampaigns() int {
	if c.MaxCampaigns <= 0 {
		return 2
	}
	return c.MaxCampaigns
}

// uploadWorkers bounds the validation workers of one upload: Workers,
// or GOMAXPROCS when it is unset, as for a campaign.
func (c Config) uploadWorkers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout == 0 {
		return 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		return 0
	}
	return c.RequestTimeout
}

func (c Config) maxUploadBytes() int64 {
	if c.MaxUploadBytes <= 0 {
		return 64 << 20
	}
	return c.MaxUploadBytes
}

// Server is the modeling service: an application store plus the
// fit scheduler. Create with New, wire into an http.Server via Handler,
// call Start to begin serving fits, and Drain on shutdown.
type Server struct {
	cfg   Config
	store *store
	clock resilience.Clock

	// life is the server's lifecycle context, recorded by Start: fit
	// loops derive from it, so cancelling it (SIGTERM in cmd/edserve)
	// stops scheduling and interrupts in-flight campaigns at the next
	// stage or fit-task boundary — checkpointed state stays resumable.
	life context.Context

	// fitSem bounds concurrent campaigns across applications.
	fitSem chan struct{}
	// fits counts live fit-loop goroutines, for Drain.
	fits sync.WaitGroup
	// dirMu makes creating an application's spool directory and
	// syncing the spool root one step (appDir).
	dirMu sync.Mutex

	mu      sync.Mutex
	started bool
	closed  bool
}

// New validates the configuration, scans the spool for applications
// left by a previous process, and builds a stopped server: Handler works
// immediately (queries answer 503 until fits complete, and uploads are
// checked against the spooled documents), Start begins fitting.
func New(cfg Config) (*Server, error) {
	if cfg.SpoolDir == "" {
		return nil, errors.New("serve: Config.SpoolDir is required")
	}
	if cfg.Setup == nil {
		return nil, errors.New("serve: Config.Setup is required")
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool dir: %w", err)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.WallClock{}
	}
	s := &Server{
		cfg:    cfg,
		store:  newStore(),
		clock:  clock,
		fitSem: make(chan struct{}, cfg.maxCampaigns()),
	}
	// Adopt the spool before any handler exists, so an upload accepted
	// before Start is already checked against what is spooled.
	apps, err := scanSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	for _, sa := range apps {
		s.store.get(sa.name).adopt(sa)
	}
	return s, nil
}

// Start records the lifecycle context and schedules a fit for every
// application with spooled documents — those New found and those
// uploaded since — with Config.Resume and an intact checkpoint store those fits
// reuse every unchanged task, so a restarted server converges to
// identical predictions cheaply. Start must be called exactly once.
func (s *Server) Start(ctx context.Context) error {
	if err := s.markStarted(ctx); err != nil {
		return err
	}
	for _, name := range s.store.names() {
		if a, ok := s.store.lookup(name); ok {
			s.kick(a)
		}
	}
	return nil
}

// markStarted records the lifecycle context exactly once.
func (s *Server) markStarted(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("serve: Start called twice")
	}
	s.started = true
	s.life = ctx
	return nil
}

// scannedApp is one application directory found in the spool.
type scannedApp struct {
	name   string
	format string
	files  int
	ids    map[identity]string
	// mixed reports a spool holding both formats — an unservable state
	// the upload path prevents but a hand-edited spool can produce.
	mixed bool
}

// scanSpool enumerates the applications spooled under root, in sorted
// order, recovering each one's format, file count and identity index.
func scanSpool(root string) ([]scannedApp, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning spool: %w", err)
	}
	var out []scannedApp
	for _, e := range entries {
		if !e.IsDir() || !validAppName(e.Name()) {
			continue
		}
		sa, err := scanApp(root, e.Name())
		if err != nil {
			return nil, err
		}
		if sa.files > 0 || sa.mixed {
			out = append(out, sa)
		}
	}
	return out, nil
}

// scanApp inventories one application's spool directory: the documents
// of every segment, read from the segment headers alone, and the loose
// profile files beside them. It deletes the ".part" temporaries that a
// crash between an upload's segment write and its rename leaves behind:
// no campaign reads them and no upload reuses one, so they would
// otherwise stay forever. New scans before any handler exists, so this
// never removes a live upload's temporary.
func scanApp(root, name string) (scannedApp, error) {
	dir := filepath.Join(root, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return scannedApp{}, fmt.Errorf("serve: scanning spool app %s: %w", name, err)
	}
	sa := scannedApp{name: name, ids: map[identity]string{}}
	doc := func(file string) {
		format, ok := formatOf(file)
		if !ok {
			return
		}
		if sa.format == "" {
			sa.format = format
		} else if sa.format != format {
			sa.mixed = true
		}
		sa.files++
		if id, ok := identityFromName(file); ok {
			sa.ids[id] = file
		}
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".part") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return scannedApp{}, fmt.Errorf("serve: removing stale spool file: %w", err)
			}
			continue
		}
		if _, ok := segmentSeq(e.Name()); !ok {
			doc(e.Name())
			continue
		}
		// Exactly the entries a campaign reads; the campaign reports
		// any damage.
		index, _ := indexSegmentFile(filepath.Join(dir, e.Name()))
		for _, se := range index {
			doc(se.name)
		}
	}
	return sa, nil
}

// Settle blocks until the application has no fit work scheduled or
// running — every upload so far is covered by a completed (successful or
// failed) campaign — and returns the published snapshot plus the last
// campaign error, either of which may be nil. It exists for clients (and
// tests) that need a quiescence point instead of polling /status.
func (s *Server) Settle(ctx context.Context, app string) (*Snapshot, error) {
	a, ok := s.store.lookup(app)
	if !ok {
		return nil, fmt.Errorf("serve: unknown application %q", app)
	}
	for {
		// Fetch the wakeup channel before inspecting state: a transition
		// between the two closes the fetched channel, so no wakeup can be
		// missed.
		ch := a.changed()
		st := a.status()
		if !st.Pending {
			var lastErr error
			if st.Last != nil {
				lastErr = st.Last.err
			}
			return a.snapshot(), lastErr
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, resilience.CauseOrErr(ctx)
		}
	}
}

// Drain waits for every fit loop to finish (they observe the Start
// context, so cancel that first for a prompt drain) or for ctx to end,
// whichever comes first. After a clean drain every completed campaign's
// checkpoint state is fully persisted.
func (s *Server) Drain(ctx context.Context) error {
	s.setClosed()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.fits.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", resilience.CauseOrErr(ctx))
	}
}

// setClosed stops kick from spawning new fit loops.
func (s *Server) setClosed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// schedulable reports whether new fit loops may start, returning the
// lifecycle context they must run under.
func (s *Server) schedulable() (context.Context, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed || s.life == nil || s.life.Err() != nil {
		return nil, false
	}
	return s.life, true
}
