package profile

import (
	"bytes"
	"encoding/json"
	"strconv"

	"extradeep/internal/calltree"
	"extradeep/internal/jsonlit"
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
//
// Each number is converted in the pass that checks its grammar, exactly
// as strconv would convert it. An integer literal of at most 18 digits
// converts directly, to an int or, in a float field, through one
// float64 conversion. A decimal without an exponent whose significand
// (its digits, point removed) is below 2^53 and which has at most 22
// fractional digits is the significand divided by a power of ten: both
// are float64s exactly and the division rounds once, which is
// strconv's own exact path. Every other literal goes through
// strconv.ParseFloat or strconv.ParseInt.
func Decode(data []byte) (*Profile, error) {
	var d Decoder
	return d.Decode(data)
}

// A Decoder decodes profile documents, reusing its working memory from
// one document to the next: the buffers the fast path collects a trace's
// arrays in, the table it interns strings in, and the summarizer. Each
// document's strings are its own, so nothing a result holds is
// overwritten by a later document. The zero value is ready to use; a
// Decoder is not safe for concurrent use.
type Decoder struct {
	events []trace.Event
	steps  []trace.StepSpan
	epochs []trace.EpochSpan
	strs   map[string]string
	sum    trace.Summarizer
}

// Bounds on the working memory a Decoder keeps after a document: an
// unusually large document's buffers are left to the garbage collector.
const (
	maxKeptEvents  = 1 << 16
	maxKeptStrings = 1 << 12
)

// Decode decodes one JSON profile document exactly as the package-level
// Decode does.
func (d *Decoder) Decode(data []byte) (*Profile, error) {
	defer d.reset()
	return d.decode(data, false)
}

// DecodeSummary decodes one JSON profile document as Decode does,
// validates the profile as Validate does and, when it is valid, replaces
// its trace by the trace's summary under opts (see Summarize). The fast
// path validates and summarizes the events in the buffer it collected
// them in, so a document's events are never copied. invalid reports
// that err is Validate's: the document decoded but is not a valid
// profile. Every error is exactly Decode's or Validate's.
func (d *Decoder) DecodeSummary(data []byte, opts trace.SummaryOptions) (p *Profile, invalid bool, err error) {
	defer d.reset()
	if p, err = d.decode(data, true); err != nil {
		return nil, false, err
	}
	if err := p.Validate(); err != nil {
		return nil, true, err
	}
	d.Summarize(p, opts)
	return p, false, nil
}

// Summarize replaces the trace of p, which must be valid, by its summary
// under opts in p.Summary, keeping only the trace's rank.
func (d *Decoder) Summarize(p *Profile, opts trace.SummaryOptions) {
	p.Summary = d.sum.Summarize(&p.Trace, opts).Clone()
	p.Trace = trace.Trace{Rank: p.Trace.Rank}
	d.sum.Reset()
}

// decode decodes data on the fast path, or through json.Unmarshal when
// the document leaves the canonical shape anywhere. With borrow set the
// fast path's trace arrays are the decoder's own buffers, valid until
// reset.
func (d *Decoder) decode(data []byte, borrow bool) (*Profile, error) {
	if p, ok := d.decodeFast(data, borrow); ok {
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
func (d *Decoder) decodeFast(data []byte, borrow bool) (p *Profile, ok bool) {
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	fast := &decoder{data: data, strs: d.strs, bufs: d, borrow: borrow}
	p = new(Profile)
	fast.profile(p)
	fast.space()
	if fast.bad || fast.pos != len(fast.data) {
		return nil, false
	}
	return p, true
}

// reset clears the decoder's buffers after a document, so they pin none
// of its strings.
func (d *Decoder) reset() {
	clear(d.events)
	d.events = d.events[:0]
	if cap(d.events) > maxKeptEvents {
		d.events = nil
	}
	d.steps, d.epochs = d.steps[:0], d.epochs[:0]
	if len(d.strs) > maxKeptStrings {
		d.strs = nil
	}
	clear(d.strs)
}

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
	// bufs holds the buffers the trace's arrays are collected in; with
	// borrow set the trace keeps them, otherwise it gets copies at their
	// final size.
	bufs   *Decoder
	borrow bool
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
			// Events are most of a profile: collect them in the reused
			// buffer, so a copy, when there is one, is allocated once.
			t.Events = collect(d, &d.bufs.events, d.event)
			return 1 << 1
		case "steps":
			t.Steps = collect(d, &d.bufs.steps, d.step)
			return 1 << 2
		case "epochs":
			t.Epochs = collect(d, &d.bufs.epochs, d.epoch)
			return 1 << 3
		}
		return 0
	})
}

// collect decodes the array at the cursor into *buf, reusing its storage,
// and returns the elements: the buffer itself when d borrows, otherwise
// a copy at its final size.
func collect[T any](d *decoder, buf *[]T, elem func() T) []T {
	s := (*buf)[:0]
	d.array(func() { s = append(s, elem()) })
	*buf = s
	if d.borrow {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
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
// in the document returns the same string. A new literal of printable
// ASCII whose escapes are the two-byte ones or a \uXXXX outside the
// surrogate range (json.Marshal escapes '>' as \u003e, so every
// simulator callpath has one) is unescaped here, through a stack
// buffer, into one string that holds both the map key and the value.
// Any other new literal is decoded by json.Unmarshal itself, so other
// escapes, surrogates and non-ASCII bytes decode exactly as in
// encoding/json and a control byte ends the fast path.
func (d *decoder) str() string {
	raw := d.quoted()
	if d.bad {
		return ""
	}
	if s, ok := d.strs[string(raw)]; ok {
		return s
	}
	lit := raw[1 : len(raw)-1]
	var key, s string
	switch {
	case !jsonlit.ASCII(lit):
		key = string(raw)
		if json.Unmarshal(raw, &s) != nil {
			d.bad = true
			return ""
		}
	case bytes.IndexByte(lit, '\\') < 0:
		key = string(raw)
		s = key[1 : len(key)-1]
	default:
		var stack [256]byte
		both := string(jsonlit.Append(append(stack[:0], raw...), lit))
		key, s = both[:len(raw)], both[len(raw):]
	}
	d.strs[key] = s
	return s
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

// num is one number literal as the fast path scans it. When exact is
// set its value is mant / 10^frac, negated when neg, and that needs no
// strconv call: mant holds the literal's digits with the point removed.
type num struct {
	lit     []byte
	integer bool // no fraction and no exponent
	exact   bool
	neg     bool
	mant    uint64
	frac    int
}

// maxExactMant bounds the significand of a decimal that converts through
// one division: below 2^53 it is a float64 exactly.
const maxExactMant = 1 << 53

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number scans the number literal at the cursor. strconv accepts more
// than JSON's grammar ("+1", ".5", "Inf", "0x1p3"), so the grammar is
// checked here, and the same pass collects the literal's digits.
func (d *decoder) number() (n num) {
	d.space()
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		n.neg = true
		i++
	}
	start := i
	switch {
	case d.bad || i == len(b):
		d.bad = true
		return num{}
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = n.digits(b, i)
	default:
		d.bad = true
		return num{}
	}
	intDigits := i - start
	n.integer = true
	if i < len(b) && b[i] == '.' {
		n.integer = false
		j := n.digits(b, i+1)
		if j == i+1 {
			d.bad = true
			return num{}
		}
		n.frac = j - (i + 1)
		i = j
	}
	exponent := i < len(b) && (b[i] == 'e' || b[i] == 'E')
	if exponent {
		n.integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.bad = true
			return num{}
		}
		i = j
	}
	// An integer of at most 18 digits is below 10^18 < 2^63, and a
	// float64 conversion of it rounds once, as strconv does. A decimal
	// whose significand is below 2^53 and whose power of ten is exact is
	// one correctly rounded division: strconv's own exact path.
	n.exact = !exponent && (n.integer && intDigits <= 18 || !n.integer && n.mant < maxExactMant && n.frac < len(pow10))
	n.lit, d.pos = b[d.pos:i], i
	return n
}

// digits consumes the digits at and after i, folding them into mant
// while it is below 10^18 (so it never overflows), and returns the index
// of the first non-digit. A significand that stops growing is at least
// 10^18, so it never passes for an exact one.
func (n *num) digits(b []byte, i int) int {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if n.mant < 1e18 {
			n.mant = n.mant*10 + uint64(b[i]-'0')
		}
	}
	return i
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *decoder) float() float64 {
	n := d.number()
	if !n.exact {
		v, err := strconv.ParseFloat(string(n.lit), 64)
		if err != nil {
			d.bad = true
		}
		return v
	}
	v := float64(int64(n.mant))
	if n.frac > 0 {
		v /= pow10[n.frac]
	}
	if n.neg {
		v = -v
	}
	return v
}

func (d *decoder) int() int {
	n := d.number()
	if !n.integer {
		d.bad = true
		return 0
	}
	if !n.exact {
		v, err := strconv.ParseInt(string(n.lit), 10, 0)
		if err != nil {
			d.bad = true
		}
		return int(v)
	}
	v := int64(n.mant)
	if n.neg {
		v = -v
	}
	if int64(int(v)) != v {
		d.bad = true // out of range for a 32-bit int
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
