package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/faults"
	"extradeep/internal/importer"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// fixtureProfile builds a small but fully valid profile at configuration x.
func fixtureProfile(x float64, rank, rep int) *profile.Profile {
	mk := func(name string, kind calltree.Kind, start, dur float64) trace.Event {
		return trace.Event{Name: name, Kind: kind, Callpath: "App->train->" + name, Start: start, Duration: dur}
	}
	return &profile.Profile{
		App:      "cifar10",
		Params:   []string{"p"},
		Config:   []float64{x},
		Rank:     rank,
		Rep:      rep,
		WallTime: 2.0,
		Sampled:  true,
		Trace: trace.Trace{
			Rank: rank,
			Events: []trace.Event{
				mk("EigenMetaKernel", calltree.KindCUDA, 0.01, 0.05),
				mk("MPI_Allreduce", calltree.KindMPI, 0.41, 0.02),
				mk("EigenMetaKernel", calltree.KindCUDA, 1.01, 0.05),
				mk("MPI_Allreduce", calltree.KindMPI, 1.41, 0.02),
			},
			Steps: []trace.StepSpan{
				{Epoch: 0, Index: 0, Phase: trace.PhaseTrain, Start: 0, End: 0.4},
				{Epoch: 0, Index: 1, Phase: trace.PhaseTrain, Start: 0.4, End: 0.8},
				{Epoch: 1, Index: 0, Phase: trace.PhaseTrain, Start: 1.0, End: 1.4},
				{Epoch: 1, Index: 1, Phase: trace.PhaseTrain, Start: 1.4, End: 1.8},
			},
			Epochs: []trace.EpochSpan{
				{Index: 0, Start: 0, End: 0.9},
				{Index: 1, Start: 1.0, End: 1.9},
			},
		},
	}
}

// writeCampaign writes a 5-configuration × 2-repetition campaign (10
// files) in the given format and returns the directory and sorted file
// names.
func writeCampaign(t *testing.T, format string) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var names []string
	for _, x := range []float64{2, 4, 6, 8, 10} {
		for rep := 1; rep <= 2; rep++ {
			p := fixtureProfile(x, 0, rep)
			name := strings.TrimSuffix(p.FileName(), ".json") + "." + format
			path := filepath.Join(dir, name)
			switch format {
			case "json":
				store := &profile.Store{Dir: dir}
				if err := store.Write(p); err != nil {
					t.Fatal(err)
				}
			case "csv":
				var buf bytes.Buffer
				if err := importer.WriteCSV(&buf, p); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			names = append(names, name)
		}
	}
	return dir, names
}

func TestLoadDirAllHealthy(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		dir, _ := writeCampaign(t, format)
		rep, err := LoadDir(dir, format, Options{})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(rep.Profiles) != 10 || len(rep.Quarantined) != 0 {
			t.Fatalf("%s: %d profiles, %d quarantined", format, len(rep.Profiles), len(rep.Quarantined))
		}
		if err := rep.Gate(Options{}); err != nil {
			t.Fatalf("%s: gate: %v", format, err)
		}
		if len(rep.Warnings) != 0 {
			t.Errorf("%s: unexpected warnings: %v", format, rep.Warnings)
		}
		if rep.Summary() != "" {
			t.Errorf("%s: summary not empty for a clean load", format)
		}
	}
}

// TestLenientQuarantinesEveryFaultKind is the degradation-gate contract:
// for every corruption kind, lenient ingestion quarantines exactly the
// corrupted files, keeps every healthy one, and the gate still accepts
// the surviving five configurations.
func TestLenientQuarantinesEveryFaultKind(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		for _, kind := range faults.Kinds() {
			t.Run(fmt.Sprintf("%s/%s", format, kind), func(t *testing.T) {
				dir, names := writeCampaign(t, format)
				// Corrupt one repetition each of two configurations.
				victims := []string{
					"cifar10.x2.mpi0.r1." + format,
					"cifar10.x6.mpi0.r2." + format,
				}
				var corrupted []string
				for _, v := range victims {
					out, err := faults.CorruptFile(filepath.Join(dir, v), kind)
					if err != nil {
						t.Fatal(err)
					}
					corrupted = append(corrupted, out)
				}

				rep, err := LoadDir(dir, format, Options{Policy: Lenient})
				if err != nil {
					t.Fatalf("lenient LoadDir failed: %v", err)
				}
				wantHealthy, wantQuarantined := len(names)-2, 2
				if kind == faults.DuplicateRankRep {
					// The originals stay valid; the two copies collide.
					wantHealthy = len(names)
				}
				if len(rep.Profiles) != wantHealthy {
					t.Errorf("kept %d profiles, want %d", len(rep.Profiles), wantHealthy)
				}
				if len(rep.Quarantined) != wantQuarantined {
					t.Fatalf("quarantined %d files, want %d: %v", len(rep.Quarantined), wantQuarantined, rep.Quarantined)
				}
				got := map[string]bool{}
				for _, q := range rep.Quarantined {
					got[q.Path] = true
					if q.Err == nil {
						t.Errorf("%s quarantined without an error", q.Path)
					}
				}
				for _, c := range corrupted {
					if !got[c] {
						t.Errorf("corrupted file %s not quarantined (got %v)", c, rep.Quarantined)
					}
				}

				if err := rep.Gate(Options{}); err != nil {
					t.Errorf("gate refused a modelable set: %v", err)
				}
				if kind != faults.DuplicateRankRep && len(rep.Warnings) == 0 {
					t.Error("no degradation warnings for configurations that lost a repetition")
				}

				sum := rep.Summary()
				for _, c := range corrupted {
					if !strings.Contains(sum, c) {
						t.Errorf("summary does not name %s:\n%s", c, sum)
					}
				}
			})
		}
	}
}

func TestStrictAbortsOnFirstFailure(t *testing.T) {
	dir, _ := writeCampaign(t, "json")
	bad := filepath.Join(dir, "cifar10.x2.mpi0.r1.json")
	if _, err := faults.CorruptFile(bad, faults.Truncate); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir, "json", Options{Policy: Strict})
	if err == nil {
		t.Fatal("strict policy accepted a corrupted campaign")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("strict error does not name the failing file: %v", err)
	}
}

func TestGateRefusesBelowMinimumConfigurations(t *testing.T) {
	dir, _ := writeCampaign(t, "json")
	// Destroy every repetition of configuration x8: 4 configurations left.
	var bad []string
	for _, v := range []string{"cifar10.x8.mpi0.r1.json", "cifar10.x8.mpi0.r2.json"} {
		path := filepath.Join(dir, v)
		if _, err := faults.CorruptFile(path, faults.Garbage); err != nil {
			t.Fatal(err)
		}
		bad = append(bad, path)
	}
	rep, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gateErr := rep.Gate(Options{})
	if gateErr == nil {
		t.Fatal("gate accepted 4 configurations")
	}
	msg := gateErr.Error()
	if !strings.Contains(msg, "4 usable configuration") {
		t.Errorf("gate error does not state the configuration count: %v", msg)
	}
	// The aggregate multi-error must list every quarantined file.
	for _, b := range bad {
		if !strings.Contains(msg, b) {
			t.Errorf("aggregate error does not name %s: %v", b, msg)
		}
	}
	// And the quarantine entries stay reachable through errors.As.
	var q Quarantined
	if !errors.As(gateErr, &q) {
		t.Error("aggregate error hides the Quarantined entries from errors.As")
	}
}

func TestGateWarnsAboutFullyLostConfiguration(t *testing.T) {
	dir, _ := writeCampaign(t, "json")
	// A sixth configuration that loses all its files: the gate still has
	// five healthy ones, so it passes but must warn.
	store := &profile.Store{Dir: dir}
	p := fixtureProfile(12, 0, 1)
	if err := store.Write(p); err != nil {
		t.Fatal(err)
	}
	if _, err := faults.CorruptFile(filepath.Join(dir, p.FileName()), faults.Empty); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(Options{}); err != nil {
		t.Fatalf("gate: %v", err)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "(12)") && strings.Contains(w, "lost every profile") {
			found = true
		}
	}
	if !found {
		t.Errorf("no warning about the fully lost configuration: %v", rep.Warnings)
	}
}

func TestGateRefusesEmptySet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cifar10.x2.mpi0.r1.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gateErr := rep.Gate(Options{})
	if gateErr == nil {
		t.Fatal("gate accepted an empty profile set")
	}
	if !strings.Contains(gateErr.Error(), "no usable profiles") || !strings.Contains(gateErr.Error(), path) {
		t.Errorf("gate error incomplete: %v", gateErr)
	}
}

func TestLoadDirStageClassification(t *testing.T) {
	dir := t.TempDir()
	store := &profile.Store{Dir: dir}
	for i, x := range []float64{2, 4, 6, 8, 10} {
		if err := store.Write(fixtureProfile(x, 0, 1)); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// read stage: a dangling symlink.
	if err := os.Symlink(filepath.Join(dir, "absent"), filepath.Join(dir, "a-dangling.json")); err != nil {
		t.Fatal(err)
	}
	// decode stage: garbage bytes.
	if err := os.WriteFile(filepath.Join(dir, "b-garbage.json"), []byte("]["), 0o644); err != nil {
		t.Fatal(err)
	}
	// validate stage: decodes but violates an invariant.
	bad := fixtureProfile(12, 0, 1)
	bad.Rep = 1
	if err := store.Write(bad); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, bad.FileName()))
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := faults.Apply(faults.NegativeDuration, data, "json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bad.FileName()), mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profiles) != 5 || len(rep.Quarantined) != 3 {
		t.Fatalf("%d profiles, %d quarantined: %v", len(rep.Profiles), len(rep.Quarantined), rep.Quarantined)
	}
	stages := map[string]Stage{}
	for _, q := range rep.Quarantined {
		stages[filepath.Base(q.Path)] = q.Stage
	}
	if stages["a-dangling.json"] != StageRead {
		t.Errorf("dangling symlink classified as %v, want read", stages["a-dangling.json"])
	}
	if stages["b-garbage.json"] != StageDecode {
		t.Errorf("garbage classified as %v, want decode", stages["b-garbage.json"])
	}
	if stages[bad.FileName()] != StageValidate {
		t.Errorf("negative duration classified as %v, want validate", stages[bad.FileName()])
	}
}

func TestLoadDirRejectsUnknownFormatAndMissingDir(t *testing.T) {
	if _, err := LoadDir(t.TempDir(), "xml", Options{}); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := LoadDir(filepath.Join(t.TempDir(), "absent"), "json", Options{}); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestCSVQuarantineCarriesPathAndLine(t *testing.T) {
	dir, _ := writeCampaign(t, "csv")
	victim := filepath.Join(dir, "cifar10.x4.mpi0.r1.csv")
	if _, err := faults.CorruptFile(victim, faults.NaNMetric); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadDir(dir, "csv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined %v", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Path != victim {
		t.Errorf("path = %q", q.Path)
	}
	if q.Stage != StageValidate {
		t.Errorf("NaN metric classified as %v, want validate (it decodes fine)", q.Stage)
	}
	if !strings.Contains(q.Err.Error(), "non-finite") {
		t.Errorf("error does not explain the non-finite value: %v", q.Err)
	}
}

// TestLoadFileCSVErrorCarriesPathAndLine pins that a CSV decode failure
// names the file in its quarantine entry and the line in its cause.
func TestLoadFileCSVErrorCarriesPathAndLine(t *testing.T) {
	var buf bytes.Buffer
	if err := importer.WriteCSV(&buf, fixtureProfile(2, 0, 1)); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("line %d", bytes.Count(buf.Bytes(), []byte("\n"))+1)
	buf.WriteString("event,x,cuda,cp,0.0,notanumber,,\n")
	path := filepath.Join(t.TempDir(), "broken.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f := LoadFile(path, "csv")
	if f.Err == nil {
		t.Fatal("broken file accepted")
	}
	msg := Quarantined{Path: f.Path, Stage: f.Stage, Err: f.Err}.Error()
	if !strings.Contains(msg, path) || !strings.Contains(msg, line) {
		t.Errorf("quarantine entry lacks path and %s: %v", line, msg)
	}
}

// TestListDirSortedAndFiltered pins the file set a directory load sees:
// only files of the requested format, in file-name order.
func TestListDirSortedAndFiltered(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.json", "a.json", "c.csv", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "d.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	for format, want := range map[string][]string{"json": {"a.json", "b.json"}, "csv": {"c.csv"}} {
		paths, err := ListDir(dir, format)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range paths {
			got = append(got, filepath.Base(p))
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: listed %v, want %v", format, got, want)
		}
	}
}

// TestLoadDirCSVSortedAndFiltered pins a CSV directory load end to end:
// every .csv file decodes, other files are ignored, and the profiles come
// back in file-name order rather than directory order.
func TestLoadDirCSVSortedAndFiltered(t *testing.T) {
	dir := t.TempDir()
	for i, rank := range []int{1, 0} {
		var buf bytes.Buffer
		if err := importer.WriteCSV(&buf, fixtureProfile(2, rank, 1)); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, []string{"b.csv", "a.csv"}[i])
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadDir(dir, "csv", Options{Policy: Strict})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profiles) != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("loaded %d, quarantined %d; want 2 and 0", len(rep.Profiles), len(rep.Quarantined))
	}
	if rep.Profiles[0].Rank != 0 || rep.Profiles[1].Rank != 1 {
		t.Error("CSV directory load not sorted by file name")
	}
}

// TestGateErrorStructured pins the satellite fix of the edserve PR: the
// lenient-mode aggregate gate error must surface its per-file stage
// classification structurally — a typed GateError with typed Quarantined
// entries — and keep it reachable after callers wrap the error, instead
// of flattening the stages into text.
func TestGateErrorStructured(t *testing.T) {
	dir, _ := writeCampaign(t, "json")
	// Three distinct failure stages in one campaign: a garbage file
	// (decode), a NaN metric (validate), and an unreadable duplicate-free
	// set is covered elsewhere; destroying both x8 repetitions drops the
	// campaign below the 5-configuration minimum so the gate refuses.
	if _, err := faults.CorruptFile(filepath.Join(dir, "cifar10.x8.mpi0.r1.json"), faults.Garbage); err != nil {
		t.Fatal(err)
	}
	if _, err := faults.CorruptFile(filepath.Join(dir, "cifar10.x8.mpi0.r2.json"), faults.NegativeDuration); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadDir(dir, "json", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gateErr := rep.Gate(Options{})
	if gateErr == nil {
		t.Fatal("gate accepted a 4-configuration campaign")
	}

	// A caller wrapping the error (the CLI and edserve both do) must not
	// lose the structure.
	wrapped := fmt.Errorf("extradeep: %w", gateErr)
	var ge *GateError
	if !errors.As(wrapped, &ge) {
		t.Fatal("wrapped gate error is not errors.As-reachable as *GateError")
	}
	if len(ge.Refusals) != 1 {
		t.Errorf("got %d refusals, want 1: %v", len(ge.Refusals), ge.Refusals)
	}
	stages := map[Stage]int{}
	for _, q := range ge.Quarantined {
		stages[q.Stage]++
	}
	if stages[StageDecode] != 1 || stages[StageValidate] != 1 {
		t.Errorf("per-file stages lost: got %v, want 1 decode + 1 validate", stages)
	}

	// The rendered text must stay byte-identical to the historical
	// errors.Join layout (one line per refusal, then per file).
	join := errors.Join(ge.Unwrap()...)
	if gateErr.Error() != join.Error() {
		t.Errorf("GateError text diverged from errors.Join:\n got: %q\nwant: %q", gateErr.Error(), join.Error())
	}
	// Individual Quarantined entries stay reachable too.
	var q Quarantined
	if !errors.As(wrapped, &q) {
		t.Error("wrapped gate error hides Quarantined from errors.As")
	}
}

// TestDecodeBytesStageClassification pins the in-memory validation entry
// point edserve uses for uploads: the stage classification must match
// what LoadDir reports for the same bytes on disk.
func TestDecodeBytesStageClassification(t *testing.T) {
	valid := fixtureProfile(2, 0, 1)
	data, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	if p, _, err := DecodeBytes(data, "json"); err != nil || p.App != "cifar10" {
		t.Fatalf("valid profile rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		kind   faults.Kind
		format string
		want   Stage
	}{
		{"garbage json", faults.Garbage, "json", StageDecode},
		{"truncated json", faults.Truncate, "json", StageDecode},
		{"nan metric csv", faults.NaNMetric, "csv", StageValidate},
		{"missing header csv", faults.MissingHeader, "csv", StageDecode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := data
			if tc.format == "csv" {
				var b bytes.Buffer
				if err := importer.WriteCSV(&b, valid); err != nil {
					t.Fatal(err)
				}
				raw = b.Bytes()
			}
			bad, err := faults.Apply(tc.kind, raw, tc.format)
			if err != nil {
				t.Fatal(err)
			}
			_, stage, err := DecodeBytes(bad, tc.format)
			if err == nil {
				t.Fatal("corrupted bytes decoded cleanly")
			}
			if stage != tc.want {
				t.Errorf("stage = %v, want %v (err: %v)", stage, tc.want, err)
			}
		})
	}
}

// TestLoadFileBackToBackThroughPool: two different files loaded one after
// the other through the pooled read buffer — the larger first, so the
// second overwrites a prefix of its bytes — each decode to the profile
// written, and the first profile is unchanged by the second load.
func TestLoadFileBackToBackThroughPool(t *testing.T) {
	dir := t.TempDir()
	big := fixtureProfile(8, 3, 2)
	for i := 0; i < 50; i++ {
		e := big.Trace.Events[0]
		e.Name = fmt.Sprintf("kernel-%02d", i)
		e.Callpath = "App->train->" + e.Name
		big.Trace.Events = append(big.Trace.Events, e)
	}
	big.Trace.Sort()
	small := fixtureProfile(2, 0, 1)
	write := func(p *profile.Profile) string {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, p.FileName())
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bigPath, smallPath := write(big), write(small)
	for round := 0; round < 3; round++ {
		first := LoadFile(bigPath, "json")
		if first.Err != nil {
			t.Fatal(first.Err)
		}
		want, err := json.Marshal(first.Profile)
		if err != nil {
			t.Fatal(err)
		}
		second := LoadFile(smallPath, "json")
		if second.Err != nil {
			t.Fatal(second.Err)
		}
		got, err := json.Marshal(first.Profile)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: loading %s changed the profile loaded from %s", round, smallPath, bigPath)
		}
		if second.Profile.Rank != small.Rank || second.Profile.Config[0] != small.Config[0] ||
			len(second.Profile.Trace.Events) != len(small.Trace.Events) {
			t.Fatalf("round %d: second load decoded %s, want %s", round, second.Profile.FileName(), small.FileName())
		}
	}
}

// TestLoadFileReadErrorsMatchReadFile: the pooled read reports the same
// read-stage errors os.ReadFile does.
func TestLoadFileReadErrorsMatchReadFile(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{filepath.Join(dir, "missing.json"), dir} {
		_, want := os.ReadFile(path)
		f := LoadFile(path, "json")
		if want == nil || f.Err == nil || f.Stage != StageRead || f.Err.Error() != want.Error() {
			t.Errorf("%s: LoadFile = stage %v %v, want read-stage %v", path, f.Stage, f.Err, want)
		}
	}
}
