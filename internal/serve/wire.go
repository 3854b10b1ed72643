package serve

import (
	"encoding/json"
	"errors"
	"net/http"
)

// The wire types below are the service's JSON vocabulary. Every error
// response carries an exit_equivalent mirroring the batch CLI's exit
// codes, so a client scripting against the API can keep the same failure
// taxonomy as one scripting against extradeep:
//
//	0 — success (200/202)
//	1 — internal failure (500: a campaign failed outright)
//	2 — request error (400 bad_request, 404 not_found, 405, 413)
//	3 — no usable data (409 conflict, 422 quarantined, 503 not_ready)
//	4 — partial success (degraded snapshots report it in-band, not as
//	    an error: responses carry "degraded": true)

// errorBody is the envelope of every non-2xx response.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// errorDetail explains one refused request.
type errorDetail struct {
	// Code is the stable, machine-matchable error class.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// ExitEquivalent is the batch CLI exit code this failure maps to.
	ExitEquivalent int `json:"exit_equivalent"`
	// Files details per-file upload failures (quarantine refusals), in
	// upload order; empty otherwise.
	Files []fileDetail `json:"files,omitempty"`
}

// fileDetail is one refused upload file, with the ingest stage the
// failure was classified under (read/decode/validate — the same taxonomy
// ingest.Quarantined uses on disk).
type fileDetail struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Stage  string `json:"stage"`
	Reason string `json:"reason"`
}

// uploadRequest is the POST /v1/apps/{app}/profiles body: a batch of
// profile files, all in one format. The batch is atomic — either every
// file is validated and spooled, or none is and the store is unchanged.
// A body in the shape json.Marshal writes for this type is read by
// envScanner; this type is json.Unmarshal's target for every other
// body.
type uploadRequest struct {
	// Format is "json" or "csv" and must match the application's
	// established format (fixed by its first upload).
	Format string `json:"format"`
	// Profiles are the file contents, verbatim.
	Profiles []uploadFile `json:"profiles"`
}

// uploadFile is one profile document in an upload batch.
type uploadFile struct {
	// Content is the profile file's bytes (a JSON document or CSV text).
	Content string `json:"content"`
}

// uploadResponse acknowledges an accepted batch (202): the documents are
// durably spooled, as one segment, under their canonical names and a
// re-fit is scheduled.
type uploadResponse struct {
	App string `json:"app"`
	// Accepted names the spooled documents in upload order.
	Accepted []string `json:"accepted"`
	// SpooledFiles is the application's total spooled document count
	// afterwards.
	SpooledFiles int `json:"spooled_files"`
	// Refit reports that a fit campaign is (or will be) running.
	Refit bool `json:"refit"`
}

// healthResponse is GET /v1/health.
type healthResponse struct {
	Status string `json:"status"`
	Apps   int    `json:"apps"`
}

// appInfo is one row of GET /v1/apps and the body of
// GET /v1/apps/{app}/status.
type appInfo struct {
	App     string `json:"app"`
	Format  string `json:"format,omitempty"`
	Files   int    `json:"files"`
	Ready   bool   `json:"ready"`
	Pending bool   `json:"pending"`
	// Generation is the published snapshot's campaign number (0 before
	// the first campaign completes).
	Generation int64 `json:"generation"`
	Degraded   bool  `json:"degraded,omitempty"`
	// LastError carries the most recent failed campaign's cause.
	LastError string `json:"last_error,omitempty"`
}

// appsResponse is GET /v1/apps.
type appsResponse struct {
	Apps []appInfo `json:"apps"`
}

// predictResponse is GET /v1/apps/{app}/predict: the Q1 answer at x
// ranks with its 95% confidence interval.
type predictResponse struct {
	App        string  `json:"app"`
	Generation int64   `json:"generation"`
	X          float64 `json:"x"`
	// Seconds is the predicted training time per epoch T(x).
	Seconds float64 `json:"seconds"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	CILevel float64 `json:"ci_level"`
	// Extrapolated marks x outside the measured range [Xs[0], Xs[n-1]].
	Extrapolated bool `json:"extrapolated,omitempty"`
	Degraded     bool `json:"degraded,omitempty"`
}

// speedupResponse is GET /v1/apps/{app}/speedup: the Eq. 11 achieved
// speedup Δa = (T₁−T(x))/(T₁/100) against the Eq. 13 theoretical
// Δt = (x−x₁)/(x₁/100), both relative to the measured baseline x₁.
type speedupResponse struct {
	App          string  `json:"app"`
	Generation   int64   `json:"generation"`
	X            float64 `json:"x"`
	Baseline     float64 `json:"baseline"`
	Achieved     float64 `json:"achieved"`
	Theoretical  float64 `json:"theoretical"`
	Extrapolated bool    `json:"extrapolated,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
}

// efficiencyResponse is GET /v1/apps/{app}/efficiency: the Eq. 13
// parallel efficiency ε = Δa/Δt (1 at the baseline).
type efficiencyResponse struct {
	App          string  `json:"app"`
	Generation   int64   `json:"generation"`
	X            float64 `json:"x"`
	Baseline     float64 `json:"baseline"`
	Efficiency   float64 `json:"efficiency"`
	Extrapolated bool    `json:"extrapolated,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
}

// costResponse is GET /v1/apps/{app}/cost: the Eq. 14 training cost
// C(x) = T(x)·x·ϱ/3600 in core-hours.
type costResponse struct {
	App          string  `json:"app"`
	Generation   int64   `json:"generation"`
	X            float64 `json:"x"`
	CoresPerRank float64 `json:"cores_per_rank"`
	// Seconds is T(x), the modeled time the cost integrates.
	Seconds      float64 `json:"seconds"`
	CoreHours    float64 `json:"core_hours"`
	Extrapolated bool    `json:"extrapolated,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
}

// apiError is a refusal the handlers construct directly; it maps onto
// one HTTP status and one exit-equivalent class.
type apiError struct {
	status  int
	code    string
	message string
	files   []fileDetail
}

func (e *apiError) Error() string { return e.message }

// conflictError is a 409: the upload contradicts already-spooled state
// (duplicate identity or format mismatch). store.admit returns it.
type conflictError struct {
	kind   string
	detail string
}

func (e *conflictError) Error() string { return e.detail }

// errMixedSpool marks an application whose spool directory holds both
// formats (only producible by hand-editing the spool on disk).
var errMixedSpool = errors.New("spool directory holds both json and csv files; remove one format and restart")

// exitEquivalentFor maps an HTTP status to the batch CLI exit code with
// the same meaning (see the package comment table).
func exitEquivalentFor(status int) int {
	switch {
	case status < 400:
		return 0
	case status == http.StatusConflict,
		status == http.StatusUnprocessableEntity,
		status == http.StatusServiceUnavailable:
		return 3
	case status >= 400 && status < 500:
		return 2
	default:
		return 1
	}
}

// writeJSON serializes one response value. Encoding failures downgrade
// to a plain 500: the value types above cannot fail to marshal, so this
// is a can't-happen guard, not a code path.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"response encoding failed","exit_equivalent":1}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

// writeError serializes one refusal in the standard envelope.
func writeError(w http.ResponseWriter, status int, code, message string, files []fileDetail) {
	writeJSON(w, status, errorBody{Error: errorDetail{
		Code:           code,
		Message:        message,
		ExitEquivalent: exitEquivalentFor(status),
		Files:          files,
	}})
}

// writeAPIError dispatches an error to the envelope: apiErrors carry
// their own status/code, conflictErrors map to 409, anything else is a
// 500 internal.
func writeAPIError(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.status, ae.code, ae.message, ae.files)
		return
	}
	var ce *conflictError
	if errors.As(err, &ce) {
		writeError(w, http.StatusConflict, "conflict_"+ce.kind, ce.detail, nil)
		return
	}
	if errors.Is(err, errMixedSpool) {
		writeError(w, http.StatusConflict, "conflict_mixed_spool", err.Error(), nil)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", err.Error(), nil)
}
