package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"extradeep/internal/aggregate"
	"extradeep/internal/core"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
	"extradeep/internal/serve"
)

// serveApp is the application name the case-study profiles declare.
const serveApp = benchmarkName

// settleTimeout bounds one wait for a fit campaign.
const settleTimeout = 60 * time.Second

// liveServer is an in-process edserve on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	app    string // base URL of the application's routes, ending in "/"
	health string
	cancel context.CancelFunc
	served chan error
	spool  string
}

// startServer builds edserve as cmd/edserve does for the case study (a
// default Config apart from spool, setup and analysis options), starts
// it and serves it on 127.0.0.1.
func startServer(spool string, obs pipeline.Observer) (*liveServer, error) {
	setup, err := caseStudySetup()
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{SpoolDir: spool, Setup: setup, Analyze: analyzeOptions()}
	if obs != nil {
		cfg.Observer = obs
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := srv.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	l := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		cancel: cancel,
		served: make(chan error, 1),
		spool:  spool,
	}
	base := "http://" + ln.Addr().String()
	l.app = base + "/v1/apps/" + serveApp + "/"
	l.health = base + "/v1/health"
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops serving, drains the fit loops and removes the spool.
func (l *liveServer) close() error {
	if l == nil {
		return nil
	}
	err := l.hs.Close()
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	l.cancel()
	ctx, done := context.WithTimeout(context.Background(), settleTimeout)
	defer done()
	err = errors.Join(err, l.srv.Drain(ctx), os.RemoveAll(l.spool))
	return err
}

// settle waits for the application's fit campaign.
func (l *liveServer) settle() (*serve.Snapshot, error) {
	ctx, done := context.WithTimeout(context.Background(), settleTimeout)
	defer done()
	snap, err := l.srv.Settle(ctx, serveApp)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, errors.New("settled without a snapshot")
	}
	return snap, nil
}

// client is the benchmark's single closed-loop HTTP client: one
// keep-alive connection, and one reused response buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}}
}

// do sends one request. The returned body aliases the client's buffer
// and is valid until the next call.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	err = errors.Join(err, resp.Body.Close())
	return resp.StatusCode, c.buf.Bytes(), err
}

// get answers 200 bodies and turns any other status into an error.
func (c *client) get(url string) ([]byte, error) {
	status, body, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	return body, nil
}

// caseStudy is the corpus serve-upload posts.
type caseStudy struct {
	files    map[string][]byte
	envelope []byte
}

func newCaseStudy(seed int64) (*caseStudy, error) {
	files, err := caseStudyCorpus(seed)
	if err != nil {
		return nil, err
	}
	env, err := envelopeOf(files)
	if err != nil {
		return nil, err
	}
	return &caseStudy{files: files, envelope: env}, nil
}

// upload POSTs the corpus and returns the number of accepted files.
func (cs *caseStudy) upload(c *client, l *liveServer) (int, error) {
	status, body, err := c.do(http.MethodPost, l.app+"profiles", cs.envelope)
	if err != nil {
		return 0, err
	}
	if status != http.StatusAccepted {
		return 0, fmt.Errorf("upload: status %d: %s", status, body)
	}
	var resp struct {
		Accepted []string `json:"accepted"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("upload response: %w", err)
	}
	return len(resp.Accepted), nil
}

// batchModels is the batch pipeline's encoded model set over the corpus
// laid out as a directory — the option-for-option batch counterpart of
// an edserve campaign, and so the reference for server≡batch parity.
func (cs *caseStudy) batchModels(dir string) ([]byte, error) {
	if _, err := writeCorpus(dir, cs.files); err != nil {
		return nil, err
	}
	setup, err := caseStudySetup()
	if err != nil {
		return nil, err
	}
	res, err := pipeline.New(pipeline.Config{Aggregation: aggregate.DefaultOptions()}).Run(context.Background(), pipeline.RunSpec{
		ProfilesDir: dir,
		Format:      "json",
		Ingest:      ingest.Options{Policy: ingest.Lenient},
		Setup:       setup,
		Analyze:     analyzeOptions(),
	})
	if err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	return core.EncodeModels(res.Models)
}

// serveUpload measures time-to-model: on a fresh server per op, POST the
// corpus as one batch, wait for the campaign with Server.Settle, then
// GET /predict?x=64.
type serveUpload struct {
	cs         *caseStudy
	refModels  []byte
	refPredict []byte
	work       string
	round      int
	servers    int

	cl     *client
	live   *liveServer
	stages *stageSpans
}

// uploadWarmups is how many checked ops each set-up round runs.
const uploadWarmups = 2

func (w *serveUpload) setup(e *env) error {
	var err error
	if w.cs, err = newCaseStudy(e.seed); err != nil {
		return err
	}
	w.work, w.round = e.work, e.round
	if w.refModels, err = w.cs.batchModels(filepath.Join(e.work, fmt.Sprintf("batch-%d", e.round))); err != nil {
		return err
	}
	w.refPredict = nil
	w.cl = newClient()
	for i := 0; i < uploadWarmups; i++ {
		c := &opCtx{}
		err := w.before(c)
		if err == nil {
			var out any
			if out, err = w.op(c); err == nil {
				err = w.verify(out)
			}
		}
		if err = errors.Join(err, w.release()); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}

// before collects the heap, starts a fresh server on a fresh spool and
// opens the client's connection to it. In a traced phase it first times
// ingest.DecodeBytes over the corpus directly, the per-file decode the
// upload handler runs.
func (w *serveUpload) before(c *opCtx) error {
	runtime.GC()
	if c.tr != nil {
		sp := c.tr.begin(c.id, 0, "decode")
		for _, n := range sortedNames(w.cs.files) {
			if _, _, err := ingest.DecodeBytes(w.cs.files[n], "json"); err != nil {
				sp.end()
				return err
			}
		}
		sp.end()
	}
	w.servers++
	spool := filepath.Join(w.work, fmt.Sprintf("spool-%d-%d", w.round, w.servers))
	var obs pipeline.Observer
	w.stages = nil
	if c.tr != nil {
		w.stages = newStageSpans(c.tr, "campaign.")
		obs = w.stages
	}
	var err error
	if w.live, err = startServer(spool, obs); err != nil {
		return err
	}
	_, err = w.cl.get(w.live.health)
	return err
}

// uploadOut is one op's output.
type uploadOut struct {
	generation int64
	predict    []byte
}

func (w *serveUpload) op(c *opCtx) (any, error) {
	if w.stages != nil {
		w.stages.attach(c.id, c.root.id())
	}
	sp := c.begin("post")
	accepted, err := w.cs.upload(w.cl, w.live)
	sp.count("envelope_bytes", float64(len(w.cs.envelope)))
	sp.count("rejected", float64(len(w.cs.files)-accepted))
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = c.begin("campaign.wait")
	snap, err := w.live.settle()
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = c.begin("first_query")
	body, err := w.cl.get(w.live.app + "predict?x=64")
	sp.end()
	if err != nil {
		return nil, err
	}
	return uploadOut{generation: snap.Generation, predict: append([]byte(nil), body...)}, nil
}

// verify demands exactly one campaign, /models byte-equal to the batch
// pipeline over the same files, and the set-up round's /predict body.
func (w *serveUpload) verify(out any) error {
	o, ok := out.(uploadOut)
	if !ok {
		return fmt.Errorf("serve-upload: unexpected output %T", out)
	}
	if o.generation != 1 {
		return fmt.Errorf("serve-upload: %d campaigns, want 1: %w", o.generation, errMismatch)
	}
	models, err := w.cl.get(w.live.app + "models")
	if err != nil {
		return err
	}
	if !bytes.Equal(models, w.refModels) {
		return fmt.Errorf("serve-upload /models vs batch pipeline: %w", errMismatch)
	}
	if w.refPredict == nil {
		w.refPredict = o.predict
	} else if !bytes.Equal(o.predict, w.refPredict) {
		return fmt.Errorf("serve-upload /predict: %w", errMismatch)
	}
	return nil
}

func (w *serveUpload) release() error {
	err := w.live.close()
	w.live = nil
	if w.cl != nil {
		w.cl.hc.CloseIdleConnections()
	}
	return err
}

var uploadLayers = []layerMetric{
	{name: "upload.post_ms", span: "post", value: busy},
	{name: "upload.envelope_mb", span: "post", value: mb("envelope_bytes")},
	{name: "upload.decode_ms", span: "decode", value: busy},
	{name: "upload.rejected", span: "post", value: counter("rejected")},
	{name: "campaign.wait_ms", span: "campaign.wait", value: busy},
	{name: "campaign.count", span: "campaign.ingest", value: one},
	{name: "campaign.ingest_ms", span: "campaign.ingest", value: busy},
	{name: "campaign.fit_ms", span: "campaign.fit", value: busy},
	{name: "campaign.errors", span: "campaign.*", value: counter("errors"), agg: sum},
	{name: "snapshot.first_query_ms", span: "first_query", value: busy},
}

func (w *serveUpload) layers(spans []span) map[string]float64 { return evalLayers(spans, uploadLayers) }
