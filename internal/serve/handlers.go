package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"extradeep/internal/analysis"
	"extradeep/internal/epoch"
	"extradeep/internal/mathutil"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
)

// Handler returns the service's HTTP routing table. It is valid before
// Start (queries answer 503 not_ready until the first campaign
// publishes) and safe for concurrent use.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", s.deadline(s.handleHealth))
	mux.HandleFunc("GET /v1/apps", s.deadline(s.handleApps))
	mux.HandleFunc("GET /v1/apps/{app}/status", s.deadline(s.handleStatus))
	mux.HandleFunc("POST /v1/apps/{app}/profiles", s.deadline(s.handleUpload))
	mux.HandleFunc("GET /v1/apps/{app}/models", s.deadline(s.handleModels))
	mux.HandleFunc("GET /v1/apps/{app}/report", s.deadline(s.handleReport))
	mux.HandleFunc("GET /v1/apps/{app}/predict", s.deadline(s.handlePredict))
	mux.HandleFunc("GET /v1/apps/{app}/speedup", s.deadline(s.handleSpeedup))
	mux.HandleFunc("GET /v1/apps/{app}/efficiency", s.deadline(s.handleEfficiency))
	mux.HandleFunc("GET /v1/apps/{app}/cost", s.deadline(s.handleCost))
	// Unknown paths answer in the standard error envelope instead of the
	// mux's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "unknown route "+r.URL.Path, nil)
	})
	return mux
}

// deadline wraps a handler with the per-request deadline budget, derived
// through the configured clock so tests control it deterministically,
// and answers 503 instead of running the handler when the request's
// context has already ended — the budget ran out or the client went
// away. A request whose context ends mid-handler answers 503 from
// whichever boundary check sees it first.
func (s *Server) deadline(h http.HandlerFunc) http.HandlerFunc {
	d := s.cfg.requestTimeout()
	return func(w http.ResponseWriter, r *http.Request) {
		if d > 0 {
			ctx, cancel := s.clock.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if err := resilience.CauseOrErr(r.Context()); err != nil {
			writeError(w, http.StatusServiceUnavailable, "deadline", "request abandoned: "+err.Error(), nil)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Apps: len(s.store.names())})
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	resp := appsResponse{Apps: []appInfo{}}
	for _, name := range s.store.names() {
		if a, ok := s.store.lookup(name); ok {
			resp.Apps = append(resp.Apps, infoOf(a))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// infoOf condenses one application's state for listings.
func infoOf(a *appState) appInfo {
	st := a.status()
	info := appInfo{App: st.Name, Format: st.Format, Files: st.Files, Pending: st.Pending}
	if snap := a.snapshot(); snap != nil {
		info.Ready = true
		info.Generation = snap.Generation
		info.Degraded = snap.Degraded
	}
	if st.Last != nil && st.Last.err != nil {
		info.LastError = st.Last.err.Error()
	}
	if st.Mixed {
		info.LastError = errMixedSpool.Error()
	}
	return info
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	a, ok := s.app(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, infoOf(a))
}

// app resolves the {app} path segment to existing state, answering the
// 400/404 itself when it cannot.
func (s *Server) app(w http.ResponseWriter, r *http.Request) (*appState, bool) {
	name := r.PathValue("app")
	if !validAppName(name) {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid application name "+strconv.Quote(name), nil)
		return nil, false
	}
	a, ok := s.store.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_app", "no profiles uploaded for application "+strconv.Quote(name), nil)
		return nil, false
	}
	return a, true
}

// upload is one validated document of an upload batch, ready to spool
// under its canonical file name. The decoded profile rides along to the
// next fit campaign (the decode handoff, see appState.pending).
type upload struct {
	name    string
	id      identity
	data    []byte
	profile *profile.Profile
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("app")
	if !validAppName(name) {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid application name "+strconv.Quote(name), nil)
		return
	}
	body, err := readBody(r, s.cfg.maxUploadBytes())
	if err != nil {
		writeAPIError(w, err)
		return
	}
	in, err := s.receive(r.Context(), name, body)
	if err != nil {
		writeAPIError(w, err)
		return
	}

	a := s.store.get(name)
	// Serialize uploads per application: admission (conflict checks) and
	// the segment's publication must be one atomic step or two racing
	// uploads could both admit the same identity.
	a.upMu.Lock()
	defer a.upMu.Unlock()
	segment, err := s.spool(a, in)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	a.commit(in.format, segment, in.batch)
	s.kick(a)
	accepted := make([]string, len(in.batch))
	for i, u := range in.batch {
		accepted[i] = u.name
	}

	st := a.status()
	writeJSON(w, http.StatusAccepted, uploadResponse{
		App:          name,
		Accepted:     accepted,
		SpooledFiles: st.Files,
		Refit:        st.Pending,
	})
}

// readBody reads the whole request body, refusing one over limit with
// 413. A body that declares its length is read into one buffer of
// exactly that size, and a declared length over limit is refused before
// anything is read or allocated; a chunked body grows its buffer as it
// arrives. A body that ends before its declared length is a 400.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, tooLarge(limit)
	}
	body := http.MaxBytesReader(nil, r.Body, limit)
	var data []byte
	var err error
	if r.ContentLength < 0 {
		data, err = io.ReadAll(body)
	} else {
		data = make([]byte, r.ContentLength)
		if _, err = io.ReadFull(body, data); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, tooLarge(tooBig.Limit)
		}
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request", message: "reading request body: " + err.Error()}
	}
	return data, nil
}

// tooLarge is the 413 refusal of a body over the upload limit.
func tooLarge(limit int64) error {
	return &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
		message: fmt.Sprintf("request body exceeds the %d-byte upload limit", limit)}
}

// snapshotFor resolves the application and its published snapshot,
// answering the error (404, 503 with last-failure detail, 409 for a
// mixed spool) itself when there is nothing to query.
func (s *Server) snapshotFor(w http.ResponseWriter, r *http.Request) (*appState, *Snapshot, bool) {
	a, ok := s.app(w, r)
	if !ok {
		return nil, nil, false
	}
	snap := a.snapshot()
	if snap == nil {
		st := a.status()
		if st.Mixed {
			writeAPIError(w, errMixedSpool)
			return nil, nil, false
		}
		msg := "no fitted models yet for application " + strconv.Quote(st.Name)
		if st.Pending {
			msg += " (fit campaign in progress)"
		} else if st.Last != nil && st.Last.err != nil {
			msg += ": last campaign failed: " + st.Last.err.Error()
		}
		writeError(w, http.StatusServiceUnavailable, "not_ready", msg, nil)
		return nil, nil, false
	}
	return a, snap, true
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Extradeep-Generation", strconv.FormatInt(snap.Generation, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.ModelsJSON)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Extradeep-Generation", strconv.FormatInt(snap.Generation, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, snap.Report)
}

// queryX parses the x query parameter (the rank count the Section 3
// equations are asked at).
func queryX(w http.ResponseWriter, r *http.Request) (float64, bool) {
	raw := r.URL.Query().Get("x")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing query parameter x (rank count)", nil)
		return 0, false
	}
	x, err := strconv.ParseFloat(raw, 64)
	if err != nil || x <= 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "query parameter x must be a positive number, got "+strconv.Quote(raw), nil)
		return 0, false
	}
	return x, true
}

// extrapolated reports x outside the snapshot's measured range.
func (snap *Snapshot) extrapolated(x float64) bool {
	return len(snap.Xs) > 0 && (x < snap.Xs[0] || x > snap.Xs[len(snap.Xs)-1])
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	m := snap.Models.App[epoch.AppPath]
	lo, hi := m.PredictInterval(0.95, x)
	writeJSON(w, http.StatusOK, predictResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		Seconds:      m.Predict(x),
		Lo:           lo,
		Hi:           hi,
		CILevel:      0.95,
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}

// speedupAt computes the Eq. 11 achieved speedup of x against the
// measured baseline x₁ = Xs[0]: Δa = (T₁−T(x))/(T₁/100).
func (snap *Snapshot) speedupAt(x float64) (x1, achieved float64, err error) {
	if len(snap.Xs) == 0 {
		return 0, 0, errors.New("snapshot has no measured configurations")
	}
	m := snap.Models.App[epoch.AppPath]
	x1 = snap.Xs[0]
	t1 := m.Predict(x1)
	if t1 == 0 {
		return 0, 0, errors.New("baseline runtime is zero")
	}
	return x1, (t1 - m.Predict(x)) / (t1 / 100), nil
}

func (s *Server) handleSpeedup(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	x1, achieved, err := snap.speedupAt(x)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, speedupResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		Baseline:     x1,
		Achieved:     achieved,
		Theoretical:  analysis.TheoreticalSpeedup(x1, x),
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}

func (s *Server) handleEfficiency(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	x1, achieved, err := snap.speedupAt(x)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	// Eq. 13: ε = Δa/Δt; the baseline itself has efficiency 1 (Δt = 0
	// there, so the ratio is taken only away from the baseline).
	eff := 1.0
	if !mathutil.AlmostEqual(x, x1, 1e-12) {
		eff = achieved / analysis.TheoreticalSpeedup(x1, x)
	}
	writeJSON(w, http.StatusOK, efficiencyResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		Baseline:     x1,
		Efficiency:   eff,
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	rho := s.cfg.Analyze.CoresPerRank
	if raw := r.URL.Query().Get("cores_per_rank"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "query parameter cores_per_rank must be a positive number, got "+strconv.Quote(raw), nil)
			return
		}
		rho = v
	}
	m := snap.Models.App[epoch.AppPath]
	cm := analysis.CostModel{Runtime: m.Function, CoresPerRank: rho}
	writeJSON(w, http.StatusOK, costResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		CoresPerRank: rho,
		Seconds:      m.Predict(x),
		CoreHours:    cm.CoreHours(x),
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}
