// Package ingest is the fault-tolerant loading layer between the on-disk
// profile formats and the analysis pipeline. The paper's pipeline is built
// for messy measurement data — medians over steps, ranks and repetitions
// exist because profiles are noisy — but a profiling campaign on a shared
// cluster also produces files that are outright broken: killed jobs leave
// truncated exports, full filesystems leave empty ones, converters emit
// NaN metrics. The decoders (profile.Decode for JSON, importer.ReadCSV
// for CSV) see one document at a time; this package loads a directory
// of them with per-file error isolation:
//
//   - every file that fails to read, decode or validate is quarantined
//     into the Report with its path, failing stage and error, instead of
//     aborting the whole load (Lenient policy, the default) — or aborts
//     immediately under the Strict policy, preserving the historical
//     behavior;
//   - duplicate profiles — two files claiming the same (app,
//     configuration, rank, repetition) — are detected and the later file
//     quarantined, so retried jobs cannot double-count a measurement;
//   - after loading, the degradation Gate decides whether the surviving
//     set is still modelable: every application must keep at least the
//     paper's minimum number of distinct configurations (five, to
//     separate logarithmic, linear and polynomial growth). If not, Gate
//     returns one aggregate error listing every quarantined file; if so,
//     it reports warnings for configurations that lost files.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"extradeep/internal/importer"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// Policy selects how per-file load failures are handled.
type Policy int

const (
	// Lenient quarantines files that fail to load and continues with the
	// rest. This is the default: one corrupted file must not discard an
	// entire measurement campaign.
	Lenient Policy = iota
	// Strict aborts on the first file that fails to load, the historical
	// all-or-nothing behavior.
	Strict
)

// String names the policy.
func (p Policy) String() string {
	if p == Strict {
		return "strict"
	}
	return "lenient"
}

// Stage locates where in the loading pipeline a file failed.
type Stage int

const (
	// StageRead covers I/O failures: the file could not be read at all.
	StageRead Stage = iota
	// StageDecode covers syntactic failures: the bytes are not a
	// well-formed JSON or CSV profile.
	StageDecode
	// StageValidate covers semantic failures: the profile decoded but
	// violates an invariant (non-finite metrics, malformed spans,
	// duplicate identity).
	StageValidate
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageRead:
		return "read"
	case StageDecode:
		return "decode"
	case StageValidate:
		return "validate"
	default:
		return "unknown"
	}
}

// Quarantined records one file excluded from the analysis.
type Quarantined struct {
	// Path is the file that failed.
	Path string
	// Stage is the loading stage the failure occurred in.
	Stage Stage
	// Err is the underlying error.
	Err error
}

// Error formats the quarantine entry as path: stage: cause.
func (q Quarantined) Error() string {
	return fmt.Sprintf("%s: %s: %v", q.Path, q.Stage, q.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (q Quarantined) Unwrap() error { return q.Err }

// Options tunes the ingestion behavior.
type Options struct {
	// Policy is Lenient (default) or Strict.
	Policy Policy
}

// Report is the outcome of one directory ingestion.
type Report struct {
	// Profiles are the successfully loaded profiles, in file-name order.
	Profiles []*profile.Profile
	// Quarantined are the files excluded from the analysis, in file-name
	// order.
	Quarantined []Quarantined
	// Warnings are degradation notes produced by Gate: the set is still
	// modelable, but less robust than a complete campaign.
	Warnings []string
	// Dir and Format record what was loaded.
	Dir    string
	Format string
}

// LoadDir loads every profile of the given format ("json" or "csv") from
// dir under the options' policy. An unreadable directory or an unknown
// format is an error under either policy; per-file failures are
// quarantined (Lenient) or returned immediately (Strict).
//
// LoadDir is the one-worker composition of the three loading steps —
// ListDir, LoadFile per file, Assemble — that pipeline.Ingest runs with
// the per-file loads fanned out across its worker pool.
func LoadDir(dir, format string, opts Options) (*Report, error) {
	paths, err := ListDir(dir, format)
	if err != nil {
		return nil, err
	}
	files := make([]File, len(paths))
	for i, path := range paths {
		files[i] = LoadFile(path, format)
	}
	return Assemble(dir, format, files, opts)
}

// ListDir returns the paths of every profile file of the given format
// ("json" or "csv") in dir, in file-name order — the order Assemble
// requires.
func ListDir(dir, format string) ([]string, error) {
	var ext string
	switch format {
	case "json":
		ext = ".json"
	case "csv":
		ext = ".csv"
	default:
		return nil, fmt.Errorf("ingest: unknown profile format %q (have json, csv)", format)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: listing %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ext) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return paths, nil
}

// File is the outcome of loading one profile file: the validated
// profile, or the stage and error it failed with.
type File struct {
	Path    string
	Profile *profile.Profile
	Stage   Stage
	Err     error
	// Reused reports that the profile was not decoded by this load but
	// taken from a decode of the same bytes the caller already had
	// (edserve's upload handoff).
	Reused bool
}

// LoadFile reads, decodes and validates one profile file, classifying
// any failure by stage. It is safe to call concurrently for different
// files.
//
// The file is read into a buffer of the load's scratch, which the next
// load reuses. That is safe because no profile retains its input: the
// JSON decoder copies every string it keeps (interning each distinct
// one once per document), and the CSV path reads a string copy.
func LoadFile(path, format string) File {
	return loadFile(path, format, nil)
}

// SummarizeFile is LoadFile, except that the loaded profile carries its
// trace's summary under opts instead of its events (see
// SummarizeBytes). The interned strings the summary keeps are the only
// strings of the document it retains.
func SummarizeFile(path, format string, opts trace.SummaryOptions) File {
	return loadFile(path, format, &opts)
}

func loadFile(path, format string, sum *trace.SummaryOptions) File {
	sc := getScratch()
	defer putScratch(sc)
	var err error
	sc.read, err = readFile(path, sc.read[:0])
	if err != nil {
		return File{Path: path, Stage: StageRead, Err: err}
	}
	p, stage, err := sc.decode(sc.read, format, sum)
	return File{Path: path, Profile: p, Stage: stage, Err: err}
}

// scratch is the working memory of one load: the read buffer and the
// JSON decoder's buffers and intern table.
type scratch struct {
	read []byte
	dec  profile.Decoder
}

// maxPooledRead bounds the read buffer a scratch keeps: a buffer grown
// past it for an unusually large file is left to the garbage collector,
// so the free list never pins more than this per scratch.
const maxPooledRead = 4 << 20

// freeScratch is a bounded free list of load scratch, as wide as the
// default worker pools (GOMAXPROCS), so every concurrent load of a
// default pipeline finds one. Unlike a sync.Pool it is not emptied by
// garbage collection, so a load allocates the same whether or not a
// collection ran since the last one.
var freeScratch = make(chan *scratch, max(4, runtime.GOMAXPROCS(0)))

// getScratch takes a scratch from the free list, or a new one when the
// list is empty.
func getScratch() *scratch {
	select {
	case sc := <-freeScratch:
		return sc
	default:
		return new(scratch)
	}
}

// putScratch returns sc to the free list, or drops it when the list is
// full.
func putScratch(sc *scratch) {
	if cap(sc.read) > maxPooledRead {
		sc.read = nil
	}
	select {
	case freeScratch <- sc:
	default:
	}
}

// readFile is os.ReadFile appending into buf: the same sizing from the
// file's stat, the same reads and the same errors.
func readFile(name string, buf []byte) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	size := 0
	if info, err := f.Stat(); err == nil {
		if s := info.Size(); int64(int(s)) == s {
			size = int(s)
		}
	}
	size++ // one byte for the final read at EOF
	if size < 512 {
		size = 512
	}
	buf = slices.Grow(buf, size)
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 1)
		}
	}
}

// Assemble builds the report of one directory ingestion from its per-file
// loads, which must be in file-name order (ListDir's order). It detects
// duplicate identities — the later file in name order is quarantined —
// and applies the policy: under Strict the first failing file in name
// order aborts the load. The result depends only on the loads and their
// order, never on how they were scheduled.
func Assemble(dir, format string, files []File, opts Options) (*Report, error) {
	rep := &Report{Dir: dir, Format: format}
	seen := make(map[identity]string, len(files))
	for _, f := range files {
		if f.Err == nil {
			p := f.Profile
			id := identityOf(p)
			if prev, dup := seen[id]; dup {
				f.Stage = StageValidate
				f.Err = fmt.Errorf("duplicate profile: %s already provides %s x%s rank %d rep %d",
					prev, p.App, measurement.Point(p.Config).Key(), p.Rank, p.Rep)
			} else {
				seen[id] = f.Path
			}
		}
		if f.Err != nil {
			q := Quarantined{Path: f.Path, Stage: f.Stage, Err: f.Err}
			if opts.Policy == Strict {
				return nil, fmt.Errorf("ingest: %w", q)
			}
			rep.Quarantined = append(rep.Quarantined, q)
			continue
		}
		rep.Profiles = append(rep.Profiles, f.Profile)
	}
	return rep, nil
}

// identity is the uniqueness key of a profile within a campaign.
type identity struct {
	app   string
	point string
	rank  int
	rep   int
}

func identityOf(p *profile.Profile) identity {
	return identity{app: p.App, point: measurement.Point(p.Config).Key(), rank: p.Rank, rep: p.Rep}
}

// DecodeBytes decodes and validates one profile held in memory,
// classifying any failure with the same read/decode/validate stages
// LoadDir uses for on-disk files. It is the validation entry point for
// callers that receive profile bytes over a transport (edserve uploads)
// rather than from the filesystem: a rejected upload carries the exact
// stage a directory ingestion would have quarantined it under.
func DecodeBytes(data []byte, format string) (*profile.Profile, Stage, error) {
	sc := getScratch()
	defer putScratch(sc)
	return sc.decode(data, format, nil)
}

// SummarizeBytes is DecodeBytes, except that a valid profile comes back
// with its trace's summary under opts (profile.Profile's Summary) in
// place of its events, which are never kept: a JSON document is
// summarized where its events were decoded, a CSV one after import. A
// document is accepted exactly when DecodeBytes accepts it, and refused
// with the same stage and error.
func SummarizeBytes(data []byte, format string, opts trace.SummaryOptions) (*profile.Profile, Stage, error) {
	sc := getScratch()
	defer putScratch(sc)
	return sc.decode(data, format, &opts)
}

// decode decodes and validates one document, summarizing it under *sum
// when sum is set.
func (sc *scratch) decode(data []byte, format string, sum *trace.SummaryOptions) (*profile.Profile, Stage, error) {
	if format == "json" {
		if sum != nil {
			p, invalid, err := sc.dec.DecodeSummary(data, *sum)
			if invalid {
				return nil, StageValidate, err
			}
			if err != nil {
				return nil, StageDecode, err
			}
			return p, 0, nil
		}
		p, err := sc.dec.Decode(data)
		if err != nil {
			return nil, StageDecode, err
		}
		if err := p.Validate(); err != nil {
			return nil, StageValidate, err
		}
		return p, 0, nil
	}
	p, err := importer.ReadCSV(strings.NewReader(string(data)))
	if err != nil {
		if errors.Is(err, importer.ErrFormat) {
			return nil, StageDecode, err
		}
		return nil, StageValidate, err
	}
	if sum != nil {
		sc.dec.Summarize(p, *sum)
	}
	return p, 0, nil
}

// Gate applies the degradation policy to the loaded set: it decides
// whether the surviving profiles are still modelable. On success it
// records warnings on the report (configurations that lost repetitions or
// disappeared entirely); on failure it returns a single aggregate error
// that names every quarantined file, so the operator sees the full damage
// in one message. Every application needs the paper's
// measurement.MinModelingPoints distinct configurations; no option moves
// that threshold, so the Options argument is unused.
func (r *Report) Gate(Options) error {
	if len(r.Profiles) == 0 {
		base := fmt.Errorf("ingest: no usable profiles in %s (%d file(s) quarantined)", r.Dir, len(r.Quarantined))
		return r.aggregate(base)
	}
	groups := profile.GroupByConfig(r.Profiles)
	keys := profile.SortedKeys(groups)

	perApp := map[string]int{}
	for _, k := range keys {
		perApp[k.App]++
	}
	apps := make([]string, 0, len(perApp))
	for app := range perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var errs []error
	for _, app := range apps {
		if n := perApp[app]; n < measurement.MinModelingPoints {
			errs = append(errs, fmt.Errorf(
				"ingest: %s has %d usable configuration(s) after quarantine; modeling needs at least %d",
				app, n, measurement.MinModelingPoints))
		}
	}
	if len(errs) > 0 {
		return r.aggregate(errs...)
	}

	// The set is modelable; degrade gracefully with visible warnings.
	r.Warnings = r.Warnings[:0]

	// Configurations whose files were all quarantined: recover the
	// identity from the canonical file name where possible.
	alive := make(map[profile.ConfigKey]bool, len(keys))
	for _, k := range keys {
		alive[k] = true
	}
	lost := map[profile.ConfigKey]bool{}
	for _, q := range r.Quarantined {
		app, config, _, _, ok := profile.ParseFileName(q.Path)
		if !ok {
			continue
		}
		key := profile.ConfigKey{App: app, Point: measurement.Point(config).Key()}
		if !alive[key] && !lost[key] {
			lost[key] = true
			r.Warnings = append(r.Warnings, fmt.Sprintf(
				"configuration %s %s lost every profile to quarantine and is excluded from the model",
				key.App, key.Point))
		}
	}

	// Configurations that survived with fewer repetitions than the rest
	// of the campaign: the medians there rest on thinner evidence.
	maxReps := 0
	reps := make(map[profile.ConfigKey]int, len(keys))
	for _, k := range keys {
		distinct := map[int]bool{}
		for _, p := range groups[k] {
			distinct[p.Rep] = true
		}
		reps[k] = len(distinct)
		if len(distinct) > maxReps {
			maxReps = len(distinct)
		}
	}
	for _, k := range keys {
		if reps[k] < maxReps {
			r.Warnings = append(r.Warnings, fmt.Sprintf(
				"configuration %s %s has only %d repetition(s) while others have %d: its medians are less robust",
				k.App, k.Point, reps[k], maxReps))
		}
	}
	return nil
}

// GateError is the structured form of a gate refusal: the surviving set
// is not modelable, and the error names why (per-application refusals)
// plus every quarantined file with its typed loading stage. Historically
// this was an opaque errors.Join whose per-file stage classification
// survived only as text once callers wrapped it; the typed Quarantined
// field keeps the classification reachable through any number of
// fmt.Errorf("%w") wrappers via errors.As, so transports (edserve) can
// map quarantine stages to distinct error bodies. The rendered text is
// identical to the historical errors.Join output.
type GateError struct {
	// Refusals are the gate's own errors: the no-usable-profiles refusal
	// or one modelability refusal per application below the minimum.
	Refusals []error
	// Quarantined are the excluded files, in file-name order, each with
	// its typed Stage (read / decode / validate).
	Quarantined []Quarantined
}

// Error renders one line per refusal and per quarantined file, matching
// errors.Join's layout.
func (e *GateError) Error() string {
	var b strings.Builder
	for i, err := range e.Refusals {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(err.Error())
	}
	for i, q := range e.Quarantined {
		if i > 0 || len(e.Refusals) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(q.Error())
	}
	return b.String()
}

// Unwrap exposes every refusal and quarantine entry to errors.Is/As.
func (e *GateError) Unwrap() []error {
	all := make([]error, 0, len(e.Refusals)+len(e.Quarantined))
	all = append(all, e.Refusals...)
	for _, q := range e.Quarantined {
		all = append(all, q)
	}
	return all
}

// aggregate builds the gate's structured multi-error from its own
// refusals plus one entry per quarantined file.
func (r *Report) aggregate(errs ...error) error {
	return &GateError{
		Refusals:    append([]error(nil), errs...),
		Quarantined: append([]Quarantined(nil), r.Quarantined...),
	}
}

// Summary renders the quarantine outcome for terminal output; it is empty
// when every file loaded cleanly.
func (r *Report) Summary() string {
	if len(r.Quarantined) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quarantined %d of %d profile file(s):\n",
		len(r.Quarantined), len(r.Quarantined)+len(r.Profiles))
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "  %s [%s stage]: %v\n", q.Path, q.Stage, q.Err)
	}
	return b.String()
}
