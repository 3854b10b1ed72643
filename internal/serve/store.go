package serve

import (
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"extradeep/internal/measurement"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
)

// store holds every application's state: a mutex over the app map. The
// map holds pointers; app state has its own finer-grained
// synchronization, so the lock is held only for lookup/insert.
type store struct {
	mu   sync.Mutex
	apps map[string]*appState
}

func newStore() *store {
	return &store{apps: make(map[string]*appState)}
}

// get returns the state for app, creating it on first use.
func (st *store) get(app string) *appState {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.apps[app]
	if !ok {
		a = &appState{name: app, ids: map[identity]string{}, pubCh: make(chan struct{})}
		st.apps[app] = a
	}
	return a
}

// lookup returns the state for app without creating it.
func (st *store) lookup(app string) (*appState, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.apps[app]
	return a, ok
}

// names returns every known application name, sorted — the /v1/apps
// listing must not leak map iteration order.
func (st *store) names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.apps))
	for name := range st.apps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// identity is the uniqueness key of a profile within one application's
// campaign, mirroring internal/ingest's duplicate detection: two spooled
// files must never claim the same (configuration, rank, repetition).
type identity struct {
	point string
	rank  int
	rep   int
}

// identityFromName recovers a spooled file's identity from its canonical
// app.x{config}.mpi{rank}.r{rep} name.
func identityFromName(name string) (identity, bool) {
	_, config, rank, rep, ok := profile.ParseFileName(name)
	if !ok {
		return identity{}, false
	}
	return identity{point: measurement.Point(config).Key(), rank: rank, rep: rep}, true
}

// Snapshot is one fully fitted campaign, published atomically: every
// query answers entirely from one snapshot value, so a client never sees
// a torn mix of two campaigns. Snapshots are immutable after publish.
type Snapshot struct {
	// Generation counts published campaigns for this application,
	// starting at 1. It is echoed in every query response, so a client
	// can correlate a prediction with the /models state it came from.
	Generation int64
	// Profiles and Quarantined are the ingest outcome of the campaign.
	Profiles    int
	Quarantined int
	// Warnings are the ingest degradation warnings.
	Warnings []string
	// Models is the fitted model set, byte-identical to a batch run over
	// the same spool (see ModelsJSON for the canonical encoding).
	Models *pipeline.ModelSet
	// Analysis carries the Section 3 results over the measured range.
	Analysis *pipeline.AnalysisResult
	// Report is the rendered text report.
	Report string
	// ModelsJSON is core.EncodeModels(Models), cached at publish time so
	// /models answers without re-encoding.
	ModelsJSON []byte
	// Xs are the measured parameter values, sorted ascending; Xs[0] is
	// the speedup/efficiency baseline x₁ of Eqs. 11–13.
	Xs []float64
	// Degraded reports a partial campaign: some per-kernel fits were
	// quarantined (the batch CLI's exit-4 analog).
	Degraded bool
}

// fitOutcome classifies the last completed fit attempt, for error
// surfaces on /models and /health.
type fitOutcome struct {
	// gen is the campaign generation the outcome belongs to.
	gen int64
	// err is nil after a successful campaign.
	err error
	// gate marks an ingest degradation-gate refusal (not yet modelable)
	// as opposed to an internal failure.
	gate bool
}

// appState is one application's mutable serving state. The mutex guards
// the spool bookkeeping and scheduling flags; the published snapshot is
// read through an atomic pointer so queries never take the lock.
type appState struct {
	name string

	// upMu serializes upload batches for this application, held across
	// the whole admit → publish → commit sequence so admission checks
	// and the segments they admitted cannot interleave. Each upload
	// writes and syncs its part file before taking it, so only the
	// rename and the directory sync happen under it. It also guards seq.
	upMu sync.Mutex
	// seq is the number of the application's last spool segment, valid
	// once seqKnown; the first spool write of the process seeds it from
	// the directory.
	seq      int
	seqKnown bool

	mu sync.Mutex
	// format is the application's profile format ("json" or "csv"),
	// fixed by the first upload; "" until then.
	format string
	// files counts spooled profile files.
	files int
	// ids indexes spooled identities → file name, for duplicate refusal.
	ids map[identity]string
	// dirty marks spool content not yet covered by a fit campaign;
	// fitting marks a live fit loop. Together they coalesce bursts: an
	// upload only spawns a loop when none runs, otherwise the running
	// loop picks the new state up on its next turn.
	dirty   bool
	fitting bool
	// gen counts started campaigns (the next snapshot's generation).
	gen int64
	// pending is the decode handoff: every batch admitted since the last
	// campaign turn, keyed by the name of the segment it was spooled as,
	// with each document's bytes and decoded profile in entry order.
	// takeTurn moves the whole set into the campaign it starts, which
	// reuses a profile only for a segment entry whose bytes still equal
	// the admitted ones; the set is freed when that campaign ends, so
	// memory stays bounded by the uploads of one turn. Each document's
	// bytes are its span of the upload's request body, so the set keeps
	// those bodies alive until then.
	pending map[string][]upload
	// last is the most recent fit outcome (nil before the first).
	last *fitOutcome
	// mixed marks a spool directory holding both formats (only reachable
	// by hand-editing the spool); the app is unservable until cleaned.
	mixed bool
	// pubCh is closed (and replaced) on every state transition — commit,
	// campaign publish, fit-loop settle — so Settle waiters can block
	// without polling.
	pubCh chan struct{}

	snap atomic.Pointer[Snapshot]
}

// signalLocked wakes every Settle waiter. Callers hold a.mu.
func (a *appState) signalLocked() {
	close(a.pubCh)
	a.pubCh = make(chan struct{})
}

// changed returns a channel closed at the next state transition.
func (a *appState) changed() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pubCh
}

// adopt seeds the state from the spool scan New makes.
func (a *appState) adopt(sa scannedApp) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.format = sa.format
	a.files = sa.files
	a.mixed = sa.mixed
	for id, name := range sa.ids {
		a.ids[id] = name
	}
	a.dirty = a.files > 0 && !a.mixed
}

// snapshot returns the current published snapshot (nil before the first
// campaign completes).
func (a *appState) snapshot() *Snapshot { return a.snap.Load() }

// status is a consistent copy of the scheduling state, for listings.
type appStatus struct {
	Name    string
	Format  string
	Files   int
	Pending bool // dirty or mid-campaign: the snapshot lags the spool
	Mixed   bool
	Last    *fitOutcome
}

func (a *appState) status() appStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return appStatus{
		Name:    a.name,
		Format:  a.format,
		Files:   a.files,
		Pending: a.dirty || a.fitting,
		Mixed:   a.mixed,
		Last:    a.last,
	}
}

// commit records an accepted batch of uploads, spooled as segment:
// fixes the format on first use, indexes the identities, bumps the file
// count, hands the decoded profiles to the next campaign and marks the
// state dirty. The caller has already validated and written the batch.
func (a *appState) commit(format, segment string, batch []upload) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.format == "" {
		a.format = format
	}
	if a.pending == nil {
		a.pending = make(map[string][]upload)
	}
	a.pending[segment] = batch
	for _, u := range batch {
		a.ids[u.id] = u.name
	}
	a.files += len(batch)
	a.dirty = true
	a.signalLocked()
}

// admit checks one upload batch against the spooled state under the
// lock: format consistency and identity uniqueness (against the spool
// and within the batch). It returns the first conflict, or nil.
func (a *appState) admit(format string, batch []upload) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mixed {
		return errMixedSpool
	}
	if a.format != "" && a.format != format {
		return &apiError{status: http.StatusConflict, code: "conflict_format", message: "application " + a.name + " already serves " + a.format + " profiles; cannot accept " + format}
	}
	seen := map[identity]string{}
	for _, u := range batch {
		if prev, ok := a.ids[u.id]; ok {
			return &apiError{status: http.StatusConflict, code: "conflict_duplicate", message: u.name + " duplicates the identity of already-spooled " + prev}
		}
		if prev, ok := seen[u.id]; ok {
			return &apiError{status: http.StatusConflict, code: "conflict_duplicate", message: u.name + " duplicates the identity of " + prev + " in the same upload"}
		}
		seen[u.id] = u.name
	}
	return nil
}

// claimFit marks the state dirty and claims the fit loop if none runs.
// It returns true when the caller must spawn the loop.
func (a *appState) claimFit() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mixed || a.files == 0 {
		return false
	}
	a.dirty = true
	if a.fitting {
		return false
	}
	a.fitting = true
	return true
}

// takeTurn consumes the dirty flag for one campaign turn, allocating its
// generation and taking the pending decode handoff. When nothing is
// dirty (or the loop should stop) it clears the fitting claim and
// reports done=true.
func (a *appState) takeTurn(stopped bool) (gen int64, handoff map[string][]upload, done bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if stopped || !a.dirty {
		a.fitting = false
		a.signalLocked()
		return 0, nil, true
	}
	a.dirty = false
	a.gen++
	handoff, a.pending = a.pending, nil
	return a.gen, handoff, false
}

// spoolFormat returns the format campaigns must ingest with.
func (a *appState) spoolFormat() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.format
}

// publish stores the campaign outcome: on success the snapshot pointer
// swaps to the fully built value; either way the outcome is recorded.
func (a *appState) publish(snap *Snapshot, out *fitOutcome) {
	if snap != nil {
		a.snap.Store(snap)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.last = out
	a.signalLocked()
}

// appNamePattern is the accepted application path segment: the same
// alphabet canonical profile file names use, so an app directory name is
// always a safe single path component.
var appNamePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

func validAppName(name string) bool {
	return appNamePattern.MatchString(name) && !strings.Contains(name, "..")
}

// formatOf classifies a file name by profile-format extension.
func formatOf(name string) (string, bool) {
	switch {
	case strings.HasSuffix(name, ".json"):
		return "json", true
	case strings.HasSuffix(name, ".csv"):
		return "csv", true
	}
	return "", false
}
