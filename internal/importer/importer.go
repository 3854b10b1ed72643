// Package importer reads profiles from foreign profiling tools. The paper
// states that Extra-Deep "supports measurements from other profiling tools
// such as Score-P, or any CUPTI-based performance profiler"; this package
// implements that interoperability through a documented CSV interchange
// format that such tools' exports can be converted to:
//
//	# extradeep-csv v1
//	# app=cifar10
//	# params=p
//	# config=4
//	# rank=0
//	# rep=1
//	# wall=12.5
//	# sampled=true
//	record,a,b,c,d,e,f,g
//	event,EigenMetaKernel,cuda,App->train->EigenMetaKernel,0.010,0.050,0,1
//	step,0,0,train,0.0,0.1,,
//	epoch,0,0.0,0.1,,,,
//
// Record types:
//
//	event,<name>,<kind>,<callpath>,<start>,<duration>,<bytes>,<count>
//	step,<epoch>,<index>,<phase>,<start>,<end>
//	epoch,<index>,<start>,<end>
//
// Kinds use the calltree names (cuda, cudnn, cublas, mpi, nccl, memcpy,
// memset, os, nvtx, cudaapi); unknown kind names are classified from the
// kernel name. Phases are "train" or "validation".
package importer

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"extradeep/internal/calltree"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// ErrFormat reports a malformed CSV profile.
var ErrFormat = errors.New("importer: malformed CSV profile")

// ReadCSV parses one CSV profile. Errors wrap ErrFormat where the input is
// malformed and always name the 1-based line of the original input the
// problem was found on, so a caller that knows the file name (ingest's
// quarantine entries) can report an exact path:line location.
func ReadCSV(r io.Reader) (*profile.Profile, error) {
	p := &profile.Profile{Rep: 1}
	br := bufio.NewReader(r)

	// Metadata comment lines precede the CSV body. Body lines keep their
	// original line numbers in bodyLines so record-level errors can point
	// into the file rather than into the comment-stripped body.
	var body strings.Builder
	var bodyLines []int
	sawMagic := false
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 {
			lineNo++
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, "#"):
				meta := strings.TrimSpace(strings.TrimPrefix(trimmed, "#"))
				if meta == "extradeep-csv v1" {
					sawMagic = true
				} else if key, val, ok := strings.Cut(meta, "="); ok {
					if err := applyMeta(p, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
						return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineNo, err)
					}
				}
			case trimmed == "":
				// skip blank lines
			default:
				body.WriteString(line)
				if !strings.HasSuffix(line, "\n") {
					body.WriteString("\n")
				}
				bodyLines = append(bodyLines, lineNo)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("importer: reading: %w", err)
		}
	}
	if !sawMagic {
		return nil, fmt.Errorf("%w: missing '# extradeep-csv v1' header", ErrFormat)
	}

	// fileLine maps a 1-based body line back to its original input line.
	fileLine := func(bodyLine int) int {
		if bodyLine >= 1 && bodyLine <= len(bodyLines) {
			return bodyLines[bodyLine-1]
		}
		return lineNo
	}

	cr := csv.NewReader(strings.NewReader(body.String()))
	cr.FieldsPerRecord = -1
	for i := 0; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			at := i + 1
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				at = pe.StartLine
			}
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, fileLine(at), err)
		}
		if len(rec) == 0 {
			continue
		}
		recLine, _ := cr.FieldPos(0)
		kind := strings.TrimSpace(rec[0])
		if i == 0 && kind == "record" {
			continue // column header
		}
		switch kind {
		case "event":
			if err := parseEvent(p, rec); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, fileLine(recLine), err)
			}
		case "step":
			if err := parseStep(p, rec); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, fileLine(recLine), err)
			}
		case "epoch":
			if err := parseEpoch(p, rec); err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, fileLine(recLine), err)
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unknown record type %q", ErrFormat, fileLine(recLine), kind)
		}
	}
	p.Trace.Rank = p.Rank
	p.Trace.Sort()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// applyMeta applies one "# key=value" metadata line. Its errors carry no
// location; ReadCSV wraps them with ErrFormat and the offending line.
func applyMeta(p *profile.Profile, key, val string) error {
	switch key {
	case "app":
		p.App = val
	case "params":
		p.Params = splitNonEmpty(val)
	case "config":
		for _, part := range splitNonEmpty(val) {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return fmt.Errorf("bad config value %q", part)
			}
			p.Config = append(p.Config, v)
		}
	case "rank":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad rank %q", val)
		}
		p.Rank = v
	case "rep":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad rep %q", val)
		}
		p.Rep = v
	case "wall":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad wall time %q", val)
		}
		p.WallTime = v
	case "sampled":
		p.Sampled = val == "true" || val == "1"
	}
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if t := strings.TrimSpace(part); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func parseEvent(p *profile.Profile, rec []string) error {
	if len(rec) < 6 {
		return errors.New("event needs name, kind, callpath, start, duration")
	}
	name := strings.TrimSpace(rec[1])
	if name == "" {
		return errors.New("event without name")
	}
	kind := calltree.ParseKind(strings.TrimSpace(rec[2]))
	if kind == calltree.KindUnknown {
		kind = calltree.ClassifyKernelName(name)
	}
	start, err := strconv.ParseFloat(strings.TrimSpace(rec[4]), 64)
	if err != nil {
		return fmt.Errorf("bad start: %v", err)
	}
	dur, err := strconv.ParseFloat(strings.TrimSpace(rec[5]), 64)
	if err != nil {
		return fmt.Errorf("bad duration: %v", err)
	}
	ev := trace.Event{
		Name:     name,
		Kind:     kind,
		Callpath: strings.TrimSpace(rec[3]),
		Start:    start,
		Duration: dur,
	}
	if len(rec) > 6 && strings.TrimSpace(rec[6]) != "" {
		if ev.Bytes, err = strconv.ParseFloat(strings.TrimSpace(rec[6]), 64); err != nil {
			return fmt.Errorf("bad bytes: %v", err)
		}
	}
	if len(rec) > 7 && strings.TrimSpace(rec[7]) != "" {
		if ev.Count, err = strconv.Atoi(strings.TrimSpace(rec[7])); err != nil {
			return fmt.Errorf("bad count: %v", err)
		}
	}
	p.Trace.Events = append(p.Trace.Events, ev)
	return nil
}

func parseStep(p *profile.Profile, rec []string) error {
	if len(rec) < 6 {
		return errors.New("step needs epoch, index, phase, start, end")
	}
	epochIdx, err := strconv.Atoi(strings.TrimSpace(rec[1]))
	if err != nil {
		return fmt.Errorf("bad epoch: %v", err)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(rec[2]))
	if err != nil {
		return fmt.Errorf("bad index: %v", err)
	}
	phase := trace.PhaseTrain
	switch strings.TrimSpace(rec[3]) {
	case "train", "":
	case "validation":
		phase = trace.PhaseValidation
	default:
		return fmt.Errorf("unknown phase %q", rec[3])
	}
	start, err := strconv.ParseFloat(strings.TrimSpace(rec[4]), 64)
	if err != nil {
		return fmt.Errorf("bad start: %v", err)
	}
	end, err := strconv.ParseFloat(strings.TrimSpace(rec[5]), 64)
	if err != nil {
		return fmt.Errorf("bad end: %v", err)
	}
	p.Trace.Steps = append(p.Trace.Steps, trace.StepSpan{
		Epoch: epochIdx, Index: idx, Phase: phase, Start: start, End: end,
	})
	return nil
}

func parseEpoch(p *profile.Profile, rec []string) error {
	if len(rec) < 4 {
		return errors.New("epoch needs index, start, end")
	}
	idx, err := strconv.Atoi(strings.TrimSpace(rec[1]))
	if err != nil {
		return fmt.Errorf("bad index: %v", err)
	}
	start, err := strconv.ParseFloat(strings.TrimSpace(rec[2]), 64)
	if err != nil {
		return fmt.Errorf("bad start: %v", err)
	}
	end, err := strconv.ParseFloat(strings.TrimSpace(rec[3]), 64)
	if err != nil {
		return fmt.Errorf("bad end: %v", err)
	}
	p.Trace.Epochs = append(p.Trace.Epochs, trace.EpochSpan{Index: idx, Start: start, End: end})
	return nil
}

// WriteCSV serializes a profile into the interchange format, so simulated
// profiles can serve as conversion templates and round-trip tests.
func WriteCSV(w io.Writer, p *profile.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# extradeep-csv v1")
	fmt.Fprintf(bw, "# app=%s\n", p.App)
	fmt.Fprintf(bw, "# params=%s\n", strings.Join(p.Params, ","))
	configs := make([]string, len(p.Config))
	for i, v := range p.Config {
		configs[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	fmt.Fprintf(bw, "# config=%s\n", strings.Join(configs, ","))
	fmt.Fprintf(bw, "# rank=%d\n", p.Rank)
	fmt.Fprintf(bw, "# rep=%d\n", p.Rep)
	fmt.Fprintf(bw, "# wall=%g\n", p.WallTime)
	fmt.Fprintf(bw, "# sampled=%v\n", p.Sampled)
	cw := csv.NewWriter(bw)
	for _, e := range p.Trace.Epochs {
		if err := cw.Write([]string{"epoch", strconv.Itoa(e.Index), g(e.Start), g(e.End)}); err != nil {
			return err
		}
	}
	for _, s := range p.Trace.Steps {
		if err := cw.Write([]string{"step", strconv.Itoa(s.Epoch), strconv.Itoa(s.Index), s.Phase.String(), g(s.Start), g(s.End)}); err != nil {
			return err
		}
	}
	for _, e := range p.Trace.Events {
		if err := cw.Write([]string{
			"event", e.Name, e.Kind.String(), e.Callpath,
			g(e.Start), g(e.Duration), g(e.Bytes), strconv.Itoa(e.Count),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
