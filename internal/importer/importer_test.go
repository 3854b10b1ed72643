package importer

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
	"extradeep/internal/trace"
)

const sampleCSV = `# extradeep-csv v1
# app=cifar10
# params=p
# config=4
# rank=0
# rep=1
# wall=12.5
# sampled=true
record,a,b,c,d,e,f,g
epoch,0,0.0,0.2,,,,
step,0,0,train,0.0,0.1,,
step,0,1,validation,0.1,0.2,,
event,EigenMetaKernel,cuda,App->train->EigenMetaKernel,0.01,0.05,0,1
event,MPI_Allreduce,mpi,App->train->MPI_Allreduce,0.06,0.02,0,1
event,Memcpy HtoD,memcpy,App->train->Memcpy HtoD,0.005,0.001,4096,1
`

func TestReadCSVBasic(t *testing.T) {
	p, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if p.App != "cifar10" || p.Rank != 0 || p.Rep != 1 || !p.Sampled {
		t.Errorf("metadata wrong: %+v", p)
	}
	if len(p.Config) != 1 || !mathutil.Close(p.Config[0], 4) {
		t.Errorf("config = %v", p.Config)
	}
	if !mathutil.Close(p.WallTime, 12.5) {
		t.Errorf("wall = %v", p.WallTime)
	}
	if len(p.Trace.Events) != 3 || len(p.Trace.Steps) != 2 || len(p.Trace.Epochs) != 1 {
		t.Fatalf("trace sizes: %d events, %d steps, %d epochs",
			len(p.Trace.Events), len(p.Trace.Steps), len(p.Trace.Epochs))
	}
	if p.Trace.Steps[1].Phase != trace.PhaseValidation {
		t.Error("validation phase lost")
	}
	if !mathutil.Close(p.Trace.Events[1].Bytes, 4096) { // sorted by start: memcpy at 0.005 is index 0
		// events sorted by start: Memcpy(0.005), Eigen(0.01), MPI(0.06)
		t.Logf("events: %+v", p.Trace.Events)
	}
}

func TestReadCSVClassifiesUnknownKinds(t *testing.T) {
	csvText := strings.Replace(sampleCSV, "MPI_Allreduce,mpi,", "MPI_Allreduce,???,", 1)
	p, err := ReadCSV(strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Trace.Events {
		if e.Name == "MPI_Allreduce" && e.Kind != calltree.KindMPI {
			t.Errorf("kind = %v, want MPI (classified from name)", e.Kind)
		}
	}
}

func TestReadCSVRejectsMissingMagic(t *testing.T) {
	noMagic := strings.Replace(sampleCSV, "# extradeep-csv v1\n", "", 1)
	if _, err := ReadCSV(strings.NewReader(noMagic)); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestReadCSVRejectsUnknownRecord(t *testing.T) {
	bad := sampleCSV + "frobnicate,1,2,3\n"
	if _, err := ReadCSV(strings.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestReadCSVRejectsBadNumbers(t *testing.T) {
	cases := []string{
		"event,x,cuda,cp,notanumber,0.1,,\n",
		"event,x,cuda,cp,0.0,notanumber,,\n",
		"step,zero,0,train,0,1\n",
		"epoch,0,bad,1\n",
	}
	for _, line := range cases {
		if _, err := ReadCSV(strings.NewReader(sampleCSV + line)); err == nil {
			t.Errorf("accepted bad line %q", line)
		}
	}
}

// TestReadCSVErrorsCarryFileLine pins the error-location contract: every
// malformed line is reported with its 1-based line number in the original
// input, not its position in the comment-stripped CSV body.
func TestReadCSVErrorsCarryFileLine(t *testing.T) {
	cases := []struct {
		name     string
		input    string
		wantLine string
	}{
		{
			"bad metadata value",
			"# extradeep-csv v1\n# app=x\n# config=oops\n",
			"line 3",
		},
		{
			// sampleCSV has 15 lines (8 metadata lines, the column
			// header and 6 records); the appended bad record is line 16.
			"bad record after header",
			sampleCSV + "event,x,cuda,cp,notanumber,0.1,,\n",
			"line 16",
		},
		{
			"unknown record type",
			sampleCSV + "frobnicate,1,2,3\n",
			"line 16",
		},
		{
			"bare quote",
			sampleCSV + "event,\"x\"y,cuda,cp,0,0.1,,\n",
			"line 16",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !errors.Is(err, ErrFormat) {
				t.Errorf("err = %v, want ErrFormat", err)
			}
			if !strings.Contains(err.Error(), c.wantLine) {
				t.Errorf("error %q does not carry %q", err, c.wantLine)
			}
		})
	}
}

func TestReadCSVRejectsNonFiniteMetrics(t *testing.T) {
	cases := []string{
		"event,x,cuda,cp,NaN,0.1,,\n",
		"event,x,cuda,cp,0.3,Inf,,\n",
		"event,x,cuda,cp,0.3,0.01,NaN,\n",
		"step,0,2,train,NaN,NaN\n",
	}
	for _, line := range cases {
		if _, err := ReadCSV(strings.NewReader(sampleCSV + line)); err == nil {
			t.Errorf("non-finite metric accepted: %q", line)
		}
	}
	// Non-finite metadata is rejected too.
	for _, meta := range []string{"# config=NaN\n", "# wall=NaN\n"} {
		if _, err := ReadCSV(strings.NewReader(sampleCSV + meta)); err == nil {
			t.Errorf("non-finite metadata accepted: %q", meta)
		}
	}
}

func TestReadCSVRejectsUnnamedEvent(t *testing.T) {
	bad := sampleCSV + "event,,cuda,cp,0.0,0.1,,\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("unnamed event accepted")
	}
}

func TestReadCSVRejectsInvalidProfile(t *testing.T) {
	// Step escaping its epoch fails trace validation.
	bad := sampleCSV + "step,0,2,train,0.2,99.0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	orig, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || len(got.Trace.Events) != len(orig.Trace.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Trace.Events {
		a, b := got.Trace.Events[i], orig.Trace.Events[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.Start != b.Start || a.Duration != b.Duration || a.Bytes != b.Bytes {
			t.Errorf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestRoundTripSimulatedProfile(t *testing.T) {
	// A full simulated profile survives the CSV round trip.
	b, err := engine.ByName("imdb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.RunConfig{
		System: hardware.DEEP(), Strategy: parallel.DataParallel{},
		Ranks: 4, WeakScaling: true, Seed: 3, SampleRanks: 1,
	}
	profiles, err := engine.Profile(b, cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, profiles[0]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace.Events) != len(profiles[0].Trace.Events) {
		t.Errorf("events: %d vs %d", len(got.Trace.Events), len(profiles[0].Trace.Events))
	}
	if len(got.Trace.Steps) != len(profiles[0].Trace.Steps) {
		t.Errorf("steps: %d vs %d", len(got.Trace.Steps), len(profiles[0].Trace.Steps))
	}
}
