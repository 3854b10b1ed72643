package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"extradeep/internal/ingest"
	"extradeep/internal/resilience"
)

// An upload POST is one pipeline over the request body. The handler's
// goroutine scans the envelope (envScanner), which unescapes each
// content literal over its own span of the body, and hands each
// document to the validation workers as soon as it has read it, so
// documents decode while the scan goes on. The same goroutine writes
// each validated document, in document order, into the batch's part
// file. When validation ends the part file is synced, and only
// admission, the rename to the segment name and the directory sync
// remain for the application's upload lock.
//
// A document is final once the scanner hands it out, so the workers
// decode it from the body and the writer takes it as it is. A body the
// scanner refuses discards the part file and reaches json.Unmarshal as
// the scanner's rebuilt equivalent, and the fallback's documents run
// through the same pipeline.

// uploadQueue bounds the documents waiting for a validation worker, and
// the results waiting for the handler. The handler takes in results
// whenever it waits to hand out a document, so no size deadlocks; a
// queue deeper than a case-study batch (90 documents) lets the scanner,
// faster than the workers, finish without waiting for them.
const uploadQueue = 128

// docTask is the i-th document of an upload.
type docTask struct {
	i   int
	doc []byte
}

// docResult is the validation outcome of the i-th document: its upload
// record, or the stage and error that refused it.
type docResult struct {
	i int
	upload
	stage ingest.Stage
	err   error
	done  bool
}

// intake is one upload's pipeline. Only the handler's goroutine touches
// its fields below results; the workers share only the channels and
// panicked.
type intake struct {
	s        *Server
	app      string
	format   string
	ctx      context.Context // the request's
	run      context.Context // ends with ctx, on shutdown or on a worker's panic
	stop     context.CancelFunc
	workers  int
	started  int
	wg       sync.WaitGroup
	tasks    chan docTask
	results  chan docResult
	mu       sync.Mutex
	panicked any

	slots    []docResult
	received int
	// next is the first document not yet written to part; halted is set
	// at the first refused document, after which nothing is written.
	next   int
	halted bool
	part   *partFile
	// werr is the first error writing part; the upload reports it only
	// after admission, as a failed spool write.
	werr  error
	batch []upload
}

// receive runs an upload body through the pipeline. On success every
// document is validated, the batch is in document order and, unless
// werr is set, its part file is written and synced; the caller admits
// and publishes it. The refusals, and their order, are those of
// decoding the whole envelope before validating any document: a
// malformed envelope (encoding/json's text), an unknown format or an
// empty batch (400) before a deadline (503), then the first application
// mismatch in document order (400), then every refused document (422).
// A refused upload leaves no part file.
func (s *Server) receive(ctx context.Context, app string, body []byte) (*intake, error) {
	in := s.newIntake(ctx, app)
	sc := envScanner{data: body}
	in.format = string(sc.header())
	known := in.format == "json" || in.format == "csv"
	for doc, ok := sc.next(); ok; doc, ok = sc.next() {
		if known {
			in.add(doc)
		}
	}
	n := sc.n
	if !sc.end() {
		in.shutdown()
		in.part.discard()
		var req uploadRequest
		if err := json.Unmarshal(sc.rebuild(), &req); err != nil {
			return nil, &apiError{status: http.StatusBadRequest, code: "bad_request", message: "malformed upload envelope: " + err.Error()}
		}
		in = s.newIntake(ctx, app)
		in.format, n = req.Format, len(req.Profiles)
		known = in.format == "json" || in.format == "csv"
		for i := 0; known && i < n; i++ {
			in.add([]byte(req.Profiles[i].Content))
		}
	}
	switch {
	case !known:
		in.shutdown()
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request",
			message: fmt.Sprintf("unknown profile format %q (have json, csv)", in.format)}
	case n == 0:
		in.shutdown()
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request", message: "upload envelope contains no profiles"}
	}
	if err := in.finish(); err != nil {
		in.part.discard()
		return nil, err
	}
	return in, nil
}

// newIntake prepares the pipeline of one upload to app; workers start
// as documents arrive.
func (s *Server) newIntake(ctx context.Context, app string) *intake {
	in := &intake{
		s:       s,
		app:     app,
		ctx:     ctx,
		workers: s.cfg.uploadWorkers(),
		tasks:   make(chan docTask, uploadQueue),
		results: make(chan docResult, uploadQueue),
	}
	in.run, in.stop = context.WithCancel(ctx)
	return in
}

// add hands the next document to the workers, starting one more worker
// while fewer than the bound run. While the queue is full it takes in
// the results that arrive meanwhile.
func (in *intake) add(doc []byte) {
	t := docTask{i: len(in.slots), doc: doc}
	in.slots = append(in.slots, docResult{})
	if in.started < in.workers {
		in.started++
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			in.work()
		}()
	}
	for {
		select {
		case in.tasks <- t:
			return
		case r := <-in.results:
			in.collect(r)
		case <-in.run.Done():
			return
		}
	}
}

// finish waits for every document's result, then syncs the part file
// of a batch that validated whole and assembles the verdict in document
// order, so it is the same for every worker count.
func (in *intake) finish() error {
	for in.received < len(in.slots) && in.run.Err() == nil {
		select {
		case r := <-in.results:
			in.collect(r)
		case <-in.run.Done():
		}
	}
	in.shutdown()
	if err := resilience.CauseOrErr(in.ctx); err != nil {
		return &apiError{status: http.StatusServiceUnavailable, code: "deadline", message: "request abandoned: " + err.Error()}
	}
	in.batch = make([]upload, 0, len(in.slots))
	var rejected []fileDetail
	for i, r := range in.slots {
		if r.err != nil {
			rejected = append(rejected, fileDetail{Index: i, Stage: r.stage.String(), Reason: r.err.Error()})
			continue
		}
		if r.profile.App != in.app {
			return &apiError{status: http.StatusBadRequest, code: "app_mismatch",
				message: fmt.Sprintf("profile %d declares application %q, uploaded to %q", i, r.profile.App, in.app)}
		}
		in.batch = append(in.batch, r.upload)
	}
	if len(rejected) > 0 {
		return &apiError{status: http.StatusUnprocessableEntity, code: "quarantined",
			message: fmt.Sprintf("%d of %d uploaded profile(s) failed validation; nothing was spooled", len(rejected), len(in.slots)),
			files:   rejected}
	}
	if in.werr == nil {
		in.werr = in.part.finish()
	}
	return nil
}

// shutdown stops the workers and waits for them. A worker's panic is
// re-raised here, on the handler's goroutine, as pipeline.ForEach
// re-raises a task's.
func (in *intake) shutdown() {
	in.stop()
	close(in.tasks)
	in.wg.Wait()
	if in.panicked != nil {
		in.part.discard()
		//edlint:ignore libpanic re-raises a validation worker's panic on the handler's goroutine, where net/http recovers it
		panic(in.panicked)
	}
}

// work is one validation worker.
func (in *intake) work() {
	defer func() {
		if v := recover(); v != nil {
			in.fail(v)
		}
	}()
	for t := range in.tasks {
		if in.run.Err() != nil {
			return
		}
		r := in.validate(t)
		select {
		case in.results <- r:
		case <-in.run.Done():
			return
		}
	}
}

// fail records a worker's panic, the first one if several panic, and
// stops the pipeline.
func (in *intake) fail(v any) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.panicked == nil {
		in.panicked = v
	}
	in.stop()
}

// validate decodes and validates one document with the exact
// read/decode/validate classification directory ingestion uses, keeping
// its trace's summary under the campaigns' aggregation options instead
// of its events (ingest.SummarizeBytes), and derives its canonical spool
// name.
func (in *intake) validate(t docTask) docResult {
	r := docResult{i: t.i, done: true}
	r.data = t.doc
	r.profile, r.stage, r.err = ingest.SummarizeBytes(r.data, in.format, in.s.aggregation)
	if r.err != nil {
		return r
	}
	p := r.profile
	r.name = p.FileName()
	if in.format == "csv" {
		r.name = strings.TrimSuffix(r.name, ".json") + ".csv"
	}
	r.id = identity{point: p.Point().Key(), rank: p.Rank, rep: p.Rep}
	return r
}

// collect files one worker's result and writes what it completes.
func (in *intake) collect(r docResult) {
	in.slots[r.i] = r
	in.received++
	in.flush()
}

// flush writes the validated documents at the head of the batch into
// the part file, in document order. It halts at the first document that
// refuses the batch.
func (in *intake) flush() {
	for !in.halted && in.next < len(in.slots) && in.slots[in.next].done {
		r := &in.slots[in.next]
		if r.err != nil || r.profile.App != in.app {
			in.halted = true
			return
		}
		if in.werr == nil {
			in.werr = in.write(r.upload)
		}
		in.next++
	}
}

// write appends one document to the part file, creating the file with
// the first document.
func (in *intake) write(u upload) error {
	if in.part == nil {
		dir, err := in.s.appDir(in.app)
		if err != nil {
			return err
		}
		if in.part, err = createPart(dir); err != nil {
			return fmt.Errorf("creating spool segment: %w", err)
		}
	}
	if err := in.part.add(u); err != nil {
		return fmt.Errorf("writing spool segment: %w", err)
	}
	return nil
}
