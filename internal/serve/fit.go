package serve

import (
	"context"
	"errors"
	"path/filepath"
	"sort"

	"extradeep/internal/core"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
)

// kick ensures a fit loop is running for the application: it marks the
// state dirty and, when no loop holds the claim, spawns one under the
// server lifecycle context. Called after every accepted upload and once
// per application at Start.
func (s *Server) kick(a *appState) {
	ctx, ok := s.schedulable()
	if !ok {
		return
	}
	if !a.claimFit() {
		return
	}
	s.fits.Add(1)
	go func(ctx context.Context) {
		defer s.fits.Done()
		s.fitLoop(ctx, a)
	}(ctx)
}

// fitLoop is the application's single fit goroutine: it turns dirty
// spool state into published snapshots until nothing is dirty, then
// releases the claim and exits. Because exactly one loop runs per
// application and each turn consumes the dirty flag once, a burst of N
// concurrent uploads costs at most two campaigns — the one in flight
// when the burst lands, plus one over the complete spool.
func (s *Server) fitLoop(ctx context.Context, a *appState) {
	for {
		// Absorb the rest of an upload burst before consuming the turn:
		// everything spooled during the window lands in this campaign.
		if w := s.cfg.CoalesceWindow; w > 0 && ctx.Err() == nil {
			_ = s.clock.Sleep(ctx, w)
		}
		gen, handoff, done := a.takeTurn(ctx.Err() != nil)
		if done {
			return
		}
		// Bound campaign concurrency across applications.
		select {
		case s.fitSem <- struct{}{}:
		case <-ctx.Done():
			a.abort()
			return
		}
		snap, out := s.campaign(ctx, a, gen, handoff)
		<-s.fitSem
		if ctx.Err() != nil && snap == nil {
			// Interrupted mid-campaign: the spool content this turn
			// claimed was never fitted. Put the turn back so a restarted
			// server (or a later Start) re-fits it.
			a.abort()
			return
		}
		a.publish(snap, out)
	}
}

// abort returns an unconsumed turn: the spool stays dirty and the loop's
// claim is released, so the work is picked up by the next kick (in this
// process or after a restart's spool rescan). The turn's decode handoff
// is dropped; the next campaign decodes those files from the spool.
func (a *appState) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dirty = true
	a.fitting = false
	a.signalLocked()
}

// campaign runs one full pipeline over the application's spool and
// builds the snapshot to publish. The pipeline configuration is exactly
// the batch CLI's — same default aggregation and modeling options, same
// lenient ingest with degradation gate — so the fitted ModelSet is
// byte-identical to a batch run over the spool's documents unpacked into
// one directory. With a checkpoint store, the campaign stores every fit
// task as its own record, and with Resume it reuses every task whose
// content key — metric, callpath, series and modeling options — an
// earlier campaign of any application already stored. A restart over an
// unchanged spool therefore refits nothing. A new upload changes the
// series of every kernel it measures, so those kernels refit; every task
// whose series it leaves unchanged is reused.
//
// handoff is the turn's decode handoff: the campaign still reads every
// segment — the spool stays the durable truth — but an entry whose bytes
// equal the admitted upload reuses the profile the upload handler
// decoded instead of decoding it a second time.
func (s *Server) campaign(ctx context.Context, a *appState, gen int64, handoff map[string][]upload) (*Snapshot, *fitOutcome) {
	dir := filepath.Join(s.cfg.SpoolDir, a.name)
	format := a.spoolFormat()
	pl := pipeline.New(s.cfg.Config)
	res, err := pl.Run(ctx, pipeline.RunSpec{
		ProfilesDir: dir,
		Format:      format,
		Ingest:      ingest.Options{Policy: ingest.Lenient},
		Load:        spoolLoader(dir, format, pl.Workers(), pl.Aggregation(), handoff),
		Setup:       s.cfg.Setup,
		Analyze:     s.cfg.Analyze,
	})
	if err != nil {
		var ge *ingest.GateError
		return nil, &fitOutcome{gen: gen, err: err, gate: errors.As(err, &ge)}
	}
	snap, err := buildSnapshot(gen, res)
	if err != nil {
		return nil, &fitOutcome{gen: gen, err: err}
	}
	return snap, &fitOutcome{gen: gen}
}

// buildSnapshot freezes one completed pipeline run into the immutable
// value queries answer from.
func buildSnapshot(gen int64, res *pipeline.RunResult) (*Snapshot, error) {
	encoded, err := core.EncodeModels(res.Models)
	if err != nil {
		return nil, err
	}
	var xs []float64
	for _, row := range res.Analysis.Rows {
		xs = append(xs, row.Ranks)
	}
	sort.Float64s(xs)
	return &Snapshot{
		Generation:  gen,
		Profiles:    len(res.Ingest.Profiles),
		Quarantined: len(res.Ingest.Quarantined),
		Warnings:    append([]string(nil), res.Ingest.Warnings...),
		Models:      res.Models,
		Analysis:    res.Analysis,
		Report:      res.Report,
		ModelsJSON:  encoded,
		Xs:          xs,
		Degraded:    res.Degraded(),
	}, nil
}
