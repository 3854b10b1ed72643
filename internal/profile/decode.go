package profile

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"

	"extradeep/internal/calltree"
	"extradeep/internal/trace"
)

// Decode decodes one JSON profile document. It does not validate the
// result; callers run Validate.
//
// The result and any error are always exactly json.Unmarshal's. A
// schema-specific decoder handles the canonical shape that json.Marshal
// writes for a Profile in a single pass, interning the strings the
// events repeat. Every document outside that shape goes to
// json.Unmarshal whole: a key that is not an exact field name (case
// variants and unknown fields included), a duplicate key, a null, a
// number outside the JSON grammar or out of range, a fraction or
// exponent in an integer field, a control byte in a string, or trailing
// data after the document.
func Decode(data []byte) (*Profile, error) {
	if p, ok := decodeFast(data); ok {
		return p, nil
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// decodeFast decodes data on the fast path; ok is false when the
// document leaves the canonical shape anywhere.
func decodeFast(data []byte) (p *Profile, ok bool) {
	d := &decoder{data: data, strs: make(map[string]string)}
	p = new(Profile)
	d.profile(p)
	d.space()
	if d.bad || d.pos != len(d.data) {
		return nil, false
	}
	return p, true
}

// eventBufs holds the buffers the fast path decodes event arrays into.
var eventBufs = sync.Pool{New: func() any { return new([]trace.Event) }}

// decoder is the fast path's cursor over one document. The first
// departure from the canonical shape sets bad; from then on no method
// consumes anything, so callers check bad once, at the end.
type decoder struct {
	data []byte
	pos  int
	bad  bool
	// strs interns the document's string literals, keyed by their raw
	// quoted bytes: a profile repeats a few dozen kernel names and
	// callpaths across hundreds of events.
	strs map[string]string
}

func (d *decoder) profile(p *Profile) {
	d.object(func(key []byte) uint {
		switch string(key) {
		case "app":
			p.App = d.str()
			return 1 << 0
		case "params":
			p.Params = []string{}
			d.array(func() { p.Params = append(p.Params, d.str()) })
			return 1 << 1
		case "config":
			p.Config = []float64{}
			d.array(func() { p.Config = append(p.Config, d.float()) })
			return 1 << 2
		case "rank":
			p.Rank = d.int()
			return 1 << 3
		case "rep":
			p.Rep = d.int()
			return 1 << 4
		case "wall_time":
			p.WallTime = d.float()
			return 1 << 5
		case "sampled":
			p.Sampled = d.bool()
			return 1 << 6
		case "trace":
			d.trace(&p.Trace)
			return 1 << 7
		}
		return 0
	})
}

func (d *decoder) trace(t *trace.Trace) {
	d.object(func(key []byte) uint {
		switch string(key) {
		case "rank":
			t.Rank = d.int()
			return 1 << 0
		case "events":
			// Events are most of a profile: collect them in a pooled
			// buffer and allocate the result once, at its final size.
			// The buffer goes back cleared, pinning no document's strings.
			buf := eventBufs.Get().(*[]trace.Event)
			events := (*buf)[:0]
			d.array(func() { events = append(events, d.event()) })
			t.Events = append(make([]trace.Event, 0, len(events)), events...)
			clear(events)
			*buf = events
			eventBufs.Put(buf)
			return 1 << 1
		case "steps":
			t.Steps = []trace.StepSpan{}
			d.array(func() { t.Steps = append(t.Steps, d.step()) })
			return 1 << 2
		case "epochs":
			t.Epochs = []trace.EpochSpan{}
			d.array(func() { t.Epochs = append(t.Epochs, d.epoch()) })
			return 1 << 3
		}
		return 0
	})
}

func (d *decoder) event() (e trace.Event) {
	d.object(func(key []byte) uint {
		switch string(key) {
		case "name":
			e.Name = d.str()
			return 1 << 0
		case "kind":
			e.Kind = calltree.Kind(d.int())
			return 1 << 1
		case "callpath":
			e.Callpath = d.str()
			return 1 << 2
		case "start":
			e.Start = d.float()
			return 1 << 3
		case "duration":
			e.Duration = d.float()
			return 1 << 4
		case "bytes":
			e.Bytes = d.float()
			return 1 << 5
		case "count":
			e.Count = d.int()
			return 1 << 6
		}
		return 0
	})
	return e
}

func (d *decoder) step() (s trace.StepSpan) {
	d.object(func(key []byte) uint {
		switch string(key) {
		case "epoch":
			s.Epoch = d.int()
			return 1 << 0
		case "index":
			s.Index = d.int()
			return 1 << 1
		case "phase":
			s.Phase = trace.Phase(d.int())
			return 1 << 2
		case "start":
			s.Start = d.float()
			return 1 << 3
		case "end":
			s.End = d.float()
			return 1 << 4
		}
		return 0
	})
	return s
}

func (d *decoder) epoch() (e trace.EpochSpan) {
	d.object(func(key []byte) uint {
		switch string(key) {
		case "index":
			e.Index = d.int()
			return 1 << 0
		case "start":
			e.Start = d.float()
			return 1 << 1
		case "end":
			e.End = d.float()
			return 1 << 2
		}
		return 0
	})
	return e
}

// object decodes the object at the cursor. member decodes the value of
// the member named key and returns that field's bit, or 0 when key
// names no field; an unknown or repeated field ends the fast path.
func (d *decoder) object(member func(key []byte) uint) {
	d.expect('{')
	if d.bad || d.eat('}') {
		return
	}
	var seen uint
	for {
		key := d.quoted()
		d.expect(':')
		if d.bad {
			return
		}
		bit := member(key[1 : len(key)-1])
		if bit == 0 || seen&bit != 0 {
			d.bad = true
			return
		}
		seen |= bit
		if !d.eat(',') {
			break
		}
	}
	d.expect('}')
}

// array decodes the array at the cursor, calling elem once per element.
func (d *decoder) array(elem func()) {
	d.expect('[')
	if d.bad || d.eat(']') {
		return
	}
	for {
		elem()
		if !d.eat(',') {
			break
		}
	}
	d.expect(']')
}

// str decodes the string literal at the cursor. A literal seen before
// in the document returns the same string. A new one that holds a
// backslash, a control byte or a non-ASCII byte is decoded by
// json.Unmarshal itself, so escapes, lone surrogates and invalid UTF-8
// decode exactly as in encoding/json and a control byte ends the fast
// path. json.Marshal escapes '>' as \u003e, so every callpath it writes
// takes that route once per document.
func (d *decoder) str() string {
	raw := d.quoted()
	if d.bad {
		return ""
	}
	if s, ok := d.strs[string(raw)]; ok {
		return s
	}
	key := string(raw)
	s := key[1 : len(key)-1]
	if !plain(s) && json.Unmarshal(raw, &s) != nil {
		d.bad = true
		return ""
	}
	d.strs[key] = s
	return s
}

// plain reports whether every byte of s is ASCII that stands for itself
// inside a JSON string: no backslash and no control byte.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c < 0x20 || c >= 0x80 {
			return false
		}
	}
	return true
}

// quoted returns the string literal at the cursor, quotes included. It
// finds the closing quote only; str checks the contents.
func (d *decoder) quoted() []byte {
	d.space()
	if d.bad || d.pos >= len(d.data) || d.data[d.pos] != '"' {
		d.bad = true
		return nil
	}
	for i := d.pos + 1; ; i++ {
		j := bytes.IndexByte(d.data[i:], '"')
		if j < 0 {
			d.bad = true
			return nil
		}
		i += j
		// The quote closes the literal unless an odd run of
		// backslashes escapes it.
		k := i
		for d.data[k-1] == '\\' {
			k--
		}
		if (i-k)%2 == 0 {
			raw := d.data[d.pos : i+1]
			d.pos = i + 1
			return raw
		}
	}
}

// number returns the number literal at the cursor and whether it is an
// integer literal, with no fraction or exponent. strconv accepts more
// than JSON's grammar ("+1", ".5", "Inf", "0x1p3"), so the grammar is
// checked here first.
func (d *decoder) number() (lit []byte, integer bool) {
	d.space()
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case d.bad || i == len(b):
		d.bad = true
		return nil, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			d.bad = true
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.bad = true
			return nil, false
		}
		i = j
	}
	lit, d.pos = b[d.pos:i], i
	return lit, integer
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *decoder) float() float64 {
	lit, _ := d.number()
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *decoder) int() int {
	lit, integer := d.number()
	v, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil || !integer {
		d.bad = true
	}
	return int(v)
}

func (d *decoder) bool() bool {
	d.space()
	rest := d.data[d.pos:]
	switch {
	case d.bad:
	case bytes.HasPrefix(rest, []byte("true")):
		d.pos += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.pos += len("false")
		return false
	}
	d.bad = true
	return false
}

// eat consumes c, after any whitespace, if it is the next byte.
func (d *decoder) eat(c byte) bool {
	d.space()
	if d.bad || d.pos >= len(d.data) || d.data[d.pos] != c {
		return false
	}
	d.pos++
	return true
}

// expect consumes c like eat, and ends the fast path if it is missing.
func (d *decoder) expect(c byte) {
	if !d.eat(c) {
		d.bad = true
	}
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}
