package dag

import "strconv"

// maxScanDepth bounds the nesting a Scanner descends into. A schedule
// request nests four levels deep (request, graph, edge list, edge), so
// anything this deep is left to encoding/json.
const maxScanDepth = 16

// Scanner reads a plain subset of JSON in one pass, without reflection: the
// subset that the PTG codec (UnmarshalGraph) and the request envelope's
// decoder (envelope.Decode, run by emts-serve and by emts-router's routing
// key alike) decode on their fast paths.
//
// The subset is strict. Object keys and string values are printable ASCII
// without escapes; numbers follow the JSON grammar and must parse; null is
// not accepted, and neither are true and false; nesting is bounded. Callers
// name the keys an object may have (Fields), each spelled exactly and
// present at most once. Every method reports false as soon as the input
// leaves the subset, and then the caller decodes the whole input with
// encoding/json instead. So the Scanner never decides whether an input is
// valid or which error it gets: on every input it accepts, encoding/json
// yields the same value, and on every other input encoding/json alone runs.
type Scanner struct {
	data  []byte
	pos   int
	depth int
}

// NewScanner returns a Scanner positioned at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (s *Scanner) consume(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// peek skips whitespace and returns the next byte (0 at the end).
func (s *Scanner) peek() byte {
	s.space()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// End reports whether only whitespace is left.
func (s *Scanner) End() bool {
	s.space()
	return s.pos == len(s.data)
}

// object reads an object. For each member it reads the key and the colon
// and calls member with the key, which must read the value (or return
// false). The key aliases the input and is valid only during the call.
func (s *Scanner) object(member func(key []byte) bool) bool {
	if s.depth == maxScanDepth || !s.consume('{') {
		return false
	}
	s.depth++
	if !s.consume('}') {
		for {
			key, ok := s.plain()
			if !ok || !s.consume(':') || !member(key) {
				return false
			}
			if s.consume('}') {
				break
			}
			if !s.consume(',') {
				return false
			}
		}
	}
	s.depth--
	return true
}

// Fields reads an object whose keys are all among names (at most 64),
// spelled exactly as given, and each present at most once. For each member
// it calls field with the matching name, which must read the value.
func (s *Scanner) Fields(names []string, field func(name string) bool) bool {
	var seen uint64
	return s.object(func(key []byte) bool {
		for i, name := range names {
			if string(key) == name {
				if seen&(1<<i) != 0 {
					return false
				}
				seen |= 1 << i
				return field(name)
			}
		}
		return false
	})
}

// Array reads an array, calling elem once per element to read it.
func (s *Scanner) Array(elem func() bool) bool {
	if s.depth == maxScanDepth || !s.consume('[') {
		return false
	}
	s.depth++
	if !s.consume(']') {
		for {
			if !elem() {
				return false
			}
			if s.consume(']') {
				break
			}
			if !s.consume(',') {
				return false
			}
		}
	}
	s.depth--
	return true
}

// String reads a string of printable ASCII without escapes.
func (s *Scanner) String() (string, bool) {
	v, ok := s.plain()
	return string(v), ok
}

// plain reads a string of printable ASCII without escapes and returns its
// contents, which alias the input.
func (s *Scanner) plain() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
		s.pos++
	}
	return nil, false
}

// number reads a number in the JSON grammar, -?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?,
// and returns its bytes; integral reports that it has neither a fraction
// nor an exponent.
func (s *Scanner) number() (lit []byte, integral, ok bool) {
	s.space()
	start := s.pos
	s.accept('-')
	switch {
	case s.accept('0'):
	case s.digits() == 0:
		return nil, false, false
	}
	integral = true
	if s.accept('.') {
		integral = false
		if s.digits() == 0 {
			return nil, false, false
		}
	}
	if s.accept('e') || s.accept('E') {
		integral = false
		if !s.accept('+') {
			s.accept('-')
		}
		if s.digits() == 0 {
			return nil, false, false
		}
	}
	return s.data[start:s.pos], integral, true
}

// accept consumes c if it is the next byte, without skipping whitespace.
func (s *Scanner) accept(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// Float reads a number as encoding/json decodes it into a float64:
// strconv.ParseFloat over the literal, which must be in range.
func (s *Scanner) Float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// Int64 reads an integer literal that fits an int64, as encoding/json
// decodes it into an int64.
func (s *Scanner) Int64() (int64, bool) {
	lit, integral, ok := s.number()
	if !ok || !integral {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, err == nil
}

// Int is Int64 for an int: the literal must fit an int as well.
func (s *Scanner) Int() (int, bool) {
	n, ok := s.Int64()
	return int(n), ok && int64(int(n)) == n
}

// Skip reads one value of the subset (object, array, string or number)
// without decoding it and returns its bytes, which alias the input.
func (s *Scanner) Skip() ([]byte, bool) {
	c := s.peek()
	start := s.pos
	var ok bool
	switch c {
	case '{':
		ok = s.object(func([]byte) bool { return s.skip() })
	case '[':
		ok = s.Array(s.skip)
	case '"':
		_, ok = s.plain()
	default:
		_, _, ok = s.number()
	}
	return s.data[start:s.pos], ok
}

// skip is Skip without the bytes.
func (s *Scanner) skip() bool {
	_, ok := s.Skip()
	return ok
}
