package main

// End-to-end tests of the edserve binary entry point: flag/usage
// refusals, the full boot → serve → signal → drain cycle, and restart
// parity over a durable spool with -resume — all driven through run()
// with an injected context standing in for SIGTERM.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"resume without checkpoint dir", []string{"-resume", "-benchmark", "imdb"}},
		{"unknown strategy", []string{"-benchmark", "imdb", "-strategy", "nope"}},
		{"unknown system", []string{"-benchmark", "imdb", "-system", "nope"}},
		{"unknown benchmark", []string{"-benchmark", "nope"}},
		{"no setup source", []string{}},
		{"batch without train samples", []string{"-batch", "32"}},
		{"empty spool", []string{"-benchmark", "imdb", "-spool", ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), tc.args, &stdout, &stderr)
			if code != exitUsage {
				t.Fatalf("exit %d, want %d (usage); stderr: %s", code, exitUsage, stderr.String())
			}
		})
	}
}

// TestRunUncreatableDirs: edserve refuses to start when it cannot
// create its spool or checkpoint directory, rather than serving without
// them, and exits 1 as extradeep does: the fault is the environment's,
// not the command line's.
func TestRunUncreatableDirs(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	under := filepath.Join(file, "dir") // a directory inside a regular file
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"spool", []string{"-spool", under}, "spool dir"},
		{"checkpoint dir", []string{"-spool", t.TempDir(), "-checkpoint-dir", under, "-resume"}, "checkpoint dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Cancelled up front, so a server that does start shuts down
			// at once instead of blocking the test.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-benchmark", "imdb", "-listen", "127.0.0.1:0"}, tc.args...)
			code := run(ctx, args, &stdout, &stderr)
			if code != exitFailure || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("exit %d, stderr %q; want %d naming the %s", code, stderr.String(), exitFailure, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("server started: %s", stdout.String())
			}
		})
	}
}

func TestRunBadListen(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-benchmark", "imdb", "-spool", t.TempDir(), "-listen", "127.0.0.1:999999"}
	code := run(context.Background(), args, &stdout, &stderr)
	if code != exitFailure {
		t.Fatalf("exit %d, want %d (failure); stderr: %s", code, exitFailure, stderr.String())
	}
}

// syncBuffer is a goroutine-safe writer the boot tests poll for the
// bound-address line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[^ ]+) `)

// bootServer runs the command on an ephemeral port and returns its base
// URL, a stop function standing in for SIGTERM, and the exit-code
// channel.
func bootServer(t *testing.T, extraArgs ...string) (base string, stop func(), exited <-chan int, out *syncBuffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout := &syncBuffer{}
	stderr := &syncBuffer{}
	args := append([]string{"-listen", "127.0.0.1:0"}, extraArgs...)
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, stdout, stderr) }()
	t.Cleanup(cancel)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], cancel, done, stdout
		}
		select {
		case code := <-done:
			t.Fatalf("server exited %d before listening; stderr: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its address; stdout: %s; stderr: %s", stdout.String(), stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// uploadBody builds a single-batch upload envelope from profile docs.
func uploadBody(t *testing.T, contents []string) []byte {
	t.Helper()
	type f struct {
		Content string `json:"content"`
	}
	req := struct {
		Format   string `json:"format"`
		Profiles []f    `json:"profiles"`
	}{Format: "json"}
	for _, c := range contents {
		req.Profiles = append(req.Profiles, f{Content: c})
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// simulateCampaign produces upload-ready imdb profile documents.
func simulateCampaign(t *testing.T, ranks []int, seed int64) []string {
	t.Helper()
	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, r := range ranks {
		ps, err := engine.Profile(b, engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: r, WeakScaling: true, Seed: seed, SampleRanks: 1,
		}, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			data, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, string(data))
		}
	}
	return docs
}

// get fetches a URL, returning status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitModels polls /models until the first campaign publishes.
func waitModels(t *testing.T, base string) []byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		status, body := get(t, base+"/v1/apps/imdb/models")
		if status == http.StatusOK {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("models never became ready; last: %d %s", status, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRunBootServeShutdownRestart(t *testing.T) {
	spool, ckpt := t.TempDir(), t.TempDir()
	docs := simulateCampaign(t, []int{2, 4, 6, 8, 10}, 77)

	// First life: boot, upload, wait for the fit, remember the answers.
	base, stop, exited, out := bootServer(t,
		"-benchmark", "imdb", "-spool", spool, "-checkpoint-dir", ckpt, "-resume")
	if status, body := get(t, base+"/v1/health"); status != http.StatusOK {
		t.Fatalf("health: %d %s", status, body)
	}
	resp, err := http.Post(base+"/v1/apps/imdb/profiles", "application/json",
		bytes.NewReader(uploadBody(t, docs)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	firstModels := waitModels(t, base)
	_, firstPredict := get(t, base+"/v1/apps/imdb/predict?x=8")

	// SIGTERM stand-in: cancel the context and require a clean, drained
	// exit.
	stop()
	select {
	case code := <-exited:
		if code != exitOK {
			t.Fatalf("shutdown exit %d, want %d", code, exitOK)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not exit after cancellation")
	}
	if text := out.String(); !strings.Contains(text, "drained") {
		t.Errorf("shutdown did not report draining; stdout: %s", text)
	}

	// Second life over the same spool + checkpoints: the rescan re-fits
	// (reusing checkpointed tasks) and must serve identical answers.
	base2, _, _, _ := bootServer(t,
		"-benchmark", "imdb", "-spool", spool, "-checkpoint-dir", ckpt, "-resume")
	secondModels := waitModels(t, base2)
	if !bytes.Equal(firstModels, secondModels) {
		t.Error("restarted server serves different models over the same spool")
	}
	_, secondPredict := get(t, base2+"/v1/apps/imdb/predict?x=8")
	if !bytes.Equal(firstPredict, secondPredict) {
		t.Errorf("restarted prediction differs: %s vs %s", firstPredict, secondPredict)
	}
}

func TestRunExplicitSetupFlags(t *testing.T) {
	// The explicit-flags setup path (no -benchmark) must boot too: it is
	// the route for profiles measured outside the simulator.
	spool := t.TempDir()
	base, stop, exited, _ := bootServer(t,
		"-spool", spool, "-batch", "32", "-train-samples", "25000", "-val-samples", "25000")
	if status, body := get(t, base+"/v1/health"); status != http.StatusOK {
		t.Fatalf("health: %d %s", status, body)
	}
	stop()
	select {
	case code := <-exited:
		if code != exitOK {
			t.Fatalf("exit %d, want %d", code, exitOK)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no exit after cancel")
	}
}
