package profile

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"extradeep/internal/calltree"
	"extradeep/internal/mathutil"
	"extradeep/internal/trace"
)

func validProfile(rank, rep int, x float64) *Profile {
	return &Profile{
		App:      "cifar10",
		Params:   []string{"p"},
		Config:   []float64{x},
		Rank:     rank,
		Rep:      rep,
		WallTime: 12.5,
		Sampled:  true,
		Trace: trace.Trace{
			Rank: rank,
			Events: []trace.Event{
				{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Start: 0.01, Duration: 0.05},
			},
			Steps:  []trace.StepSpan{{Epoch: 0, Index: 0, Phase: trace.PhaseTrain, Start: 0, End: 0.1}},
			Epochs: []trace.EpochSpan{{Index: 0, Start: 0, End: 0.1}},
		},
	}
}

func TestFileName(t *testing.T) {
	cases := []struct {
		app    string
		config []float64
		rank   int
		rep    int
		want   string
	}{
		{"cifar10", []float64{4}, 0, 1, "cifar10.x4.mpi0.r1.json"},
		{"imagenet", []float64{4, 256}, 3, 2, "imagenet.x4_256.mpi3.r2.json"},
		{"imdb", []float64{0.5}, 10, 5, "imdb.x0.5.mpi10.r5.json"},
	}
	for _, c := range cases {
		if got := FileName(c.app, c.config, c.rank, c.rep); got != c.want {
			t.Errorf("FileName = %q, want %q", got, c.want)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	if err := validProfile(0, 1, 4).Validate(); err != nil {
		t.Fatal(err)
	}
	p := validProfile(0, 1, 4)
	p.App = ""
	if p.Validate() == nil {
		t.Error("empty app accepted")
	}
	p = validProfile(0, 1, 4)
	p.Params = nil
	if p.Validate() == nil {
		t.Error("param/config mismatch accepted")
	}
	p = validProfile(-1, 1, 4)
	if p.Validate() == nil {
		t.Error("negative rank accepted")
	}
	p = validProfile(0, 0, 4)
	if p.Validate() == nil {
		t.Error("repetition 0 accepted")
	}
	p = validProfile(0, 1, 4)
	p.Trace.Events[0].Duration = -1
	if p.Validate() == nil {
		t.Error("invalid trace accepted")
	}
}

// TestParseFileName pins the inverse of FileName: every canonical name
// round-trips, including multi-parameter configs and fractional values
// whose decimal points must not be confused with name separators.
func TestParseFileName(t *testing.T) {
	cases := []struct {
		app    string
		config []float64
		rank   int
		rep    int
	}{
		{"cifar10", []float64{4}, 0, 1},
		{"imagenet", []float64{4, 256}, 3, 2},
		{"imdb", []float64{0.5}, 10, 5},
		{"deep.v2", []float64{1.25, 8}, 0, 3},
	}
	for _, c := range cases {
		name := FileName(c.app, c.config, c.rank, c.rep)
		app, config, rank, rep, ok := ParseFileName(name)
		if !ok {
			t.Errorf("ParseFileName(%q) failed", name)
			continue
		}
		if app != c.app || rank != c.rank || rep != c.rep || len(config) != len(c.config) {
			t.Errorf("ParseFileName(%q) = %q %v %d %d", name, app, config, rank, rep)
			continue
		}
		for i := range config {
			if !mathutil.Close(config[i], c.config[i]) {
				t.Errorf("ParseFileName(%q) config = %v, want %v", name, config, c.config)
			}
		}
	}
	// The CSV flavor of the canonical name parses too.
	if app, _, _, _, ok := ParseFileName("cifar10.x4.mpi0.r1.csv"); !ok || app != "cifar10" {
		t.Error("CSV extension rejected")
	}
}

func TestParseFileNameRejectsNonCanonical(t *testing.T) {
	for _, name := range []string{
		"",
		"README.txt",
		"profile.json",
		"app.mpi0.r1.json",        // no .x marker
		"app.x4.r1.json",          // no .mpi marker
		"app.x4.mpi0.json",        // no .r marker
		"app.xfoo.mpi0.r1.json",   // non-numeric config
		"app.x4.mpibad.r1.json",   // non-numeric rank
		"app.x4.mpi0.rbad.json",   // non-numeric rep
		".x4.mpi0.r1.json",        // empty app
		"app.x4.mpi-1.r1.json",    // negative rank
		"app.x4.mpi0.r0.json",     // rep below 1
		"app.xNaN.mpi0.r1.json",   // non-finite config
		"app.x1e999.mpi0.r1.json", // out-of-range config
	} {
		if _, _, _, _, ok := ParseFileName(name); ok {
			t.Errorf("ParseFileName(%q) accepted non-canonical name", name)
		}
	}
}

func TestProfileValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(p *Profile)
	}{
		{"NaN config", func(p *Profile) { p.Config[0] = nan }},
		{"Inf config", func(p *Profile) { p.Config[0] = math.Inf(1) }},
		{"NaN wall time", func(p *Profile) { p.WallTime = nan }},
		{"Inf wall time", func(p *Profile) { p.WallTime = math.Inf(-1) }},
		{"negative wall time", func(p *Profile) { p.WallTime = -1 }},
		{"NaN event duration", func(p *Profile) { p.Trace.Events[0].Duration = nan }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := validProfile(0, 1, 4)
			c.mutate(p)
			if p.Validate() == nil {
				t.Error("non-finite profile accepted")
			}
		})
	}
}

func TestPointIsCopy(t *testing.T) {
	p := validProfile(0, 1, 4)
	pt := p.Point()
	pt[0] = 99
	if !mathutil.Close(p.Config[0], 4) {
		t.Error("Point aliases the profile's config")
	}
}

func TestStoreWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := &Store{Dir: filepath.Join(dir, "profiles")}
	orig := validProfile(2, 1, 8)
	if err := s.Write(orig); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir, orig.FileName()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || got.Rank != 2 || got.Rep != 1 || !mathutil.Close(got.Config[0], 8) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(got.Trace.Events) != 1 || got.Trace.Events[0].Name != "EigenMetaKernel" {
		t.Error("trace lost in round trip")
	}
	if got.Trace.Events[0].Kind != calltree.KindCUDA {
		t.Error("event kind lost in round trip")
	}
}

func TestStoreWriteRejectsInvalid(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	p := validProfile(0, 0, 4) // rep 0 is invalid
	if err := s.Write(p); err == nil {
		t.Error("invalid profile written")
	}
}

func TestReadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestGroupByConfig(t *testing.T) {
	profiles := []*Profile{
		validProfile(1, 2, 4),
		validProfile(0, 1, 4),
		validProfile(0, 1, 8),
		validProfile(1, 1, 4),
	}
	groups := GroupByConfig(profiles)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	g4 := groups[ConfigKey{App: "cifar10", Point: "(4)"}]
	if len(g4) != 3 {
		t.Fatalf("x4 group has %d profiles, want 3", len(g4))
	}
	// Ordered by (rep, rank): r1/mpi0, r1/mpi1, r2/mpi1.
	if g4[0].Rep != 1 || g4[0].Rank != 0 || g4[1].Rep != 1 || g4[1].Rank != 1 || g4[2].Rep != 2 {
		t.Errorf("group order wrong: %+v", []int{g4[0].Rank, g4[1].Rank, g4[2].Rank})
	}
}

func TestSortedKeys(t *testing.T) {
	groups := map[ConfigKey][]*Profile{
		{App: "b", Point: "(2)"}: nil,
		{App: "a", Point: "(8)"}: nil,
		{App: "a", Point: "(2)"}: nil,
	}
	keys := SortedKeys(groups)
	if keys[0].App != "a" || keys[0].Point != "(2)" || keys[2].App != "b" {
		t.Errorf("keys = %v", keys)
	}
}
