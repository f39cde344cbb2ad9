package tracep

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"tracep/internal/proc"
)

// The result wire decoder. Every read of a ResultSet or a Result — saved
// baselines, tracepd status bodies and cell streams, journal cell records
// — goes through wireReader: one pass over the bytes that checks the JSON
// grammar and fills the values as it goes, with no reflection per field.
// The field names come from the structs' json tags, read once at init, so
// the tags stay the only field list. It accepts what encoding/json accepts
// for these types and leaves the same values behind: names match exactly
// or else case-insensitively, unknown members are skipped, null leaves a
// counter or a string as it was, a repeated member decodes again over the
// first, and invalid UTF-8 in a string reads as U+FFFD. The one
// difference is a null cell in a set's results, which encoding/json
// decoded into a nil *Result that the set could not hold; it is an error.

// maxWireDepth is encoding/json's nesting limit, so the two refuse the
// same inputs.
const maxWireDepth = 10000

// wireKind is the Go type of one wire field.
type wireKind uint8

const (
	wireUint64  wireKind = iota // uint64
	wireInt64                   // int64
	wireString                  // string
	wireStrings                 // []string
	wireInt64s                  // []int64
	wireResults                 // []*Result
	wireStats                   // *Stats
	wireClasses                 // [n]ClassStats
)

// wireField is one json-tagged field: its wire name, type and offset.
type wireField struct {
	name string
	kind wireKind
	off  uintptr
	n    int // array length (wireClasses)
}

// wireStruct is a struct's field table, built from its json tags, in
// field order.
type wireStruct []wireField

var (
	resultSetFields = newWireStruct(reflect.TypeFor[resultSetJSON]())
	resultFields    = newWireStruct(reflect.TypeFor[Result]())
	statsFields     = newWireStruct(reflect.TypeFor[Stats]())
	classFields     = newWireStruct(reflect.TypeFor[proc.ClassStats]())
)

// newWireStruct reads t's exported fields and their json names (the Go
// name when the tag gives none). A field of a type the reader does not
// know panics at init, so a new wire field cannot be silently dropped.
func newWireStruct(t reflect.Type) wireStruct {
	ws := make(wireStruct, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		wf := wireField{name: name, off: f.Offset}
		switch f.Type {
		case reflect.TypeFor[uint64]():
			wf.kind = wireUint64
		case reflect.TypeFor[int64]():
			wf.kind = wireInt64
		case reflect.TypeFor[string]():
			wf.kind = wireString
		case reflect.TypeFor[[]string]():
			wf.kind = wireStrings
		case reflect.TypeFor[[]int64]():
			wf.kind = wireInt64s
		case reflect.TypeFor[[]*Result]():
			wf.kind = wireResults
		case reflect.TypeFor[*Stats]():
			wf.kind = wireStats
		default:
			if f.Type.Kind() != reflect.Array || f.Type.Elem() != reflect.TypeFor[proc.ClassStats]() {
				panic(fmt.Sprintf("tracep: result wire field %s.%s has unsupported type %s", t.Name(), f.Name, f.Type))
			}
			wf.kind, wf.n = wireClasses, f.Type.Len()
		}
		ws = append(ws, wf)
	}
	return ws
}

// lookup returns the field a member key names, matched as encoding/json
// matches: exactly, else by Unicode case folding. *next is the field
// after the last one found; the encoder writes fields in order, so it is
// usually the one named and costs one compare.
func (ws wireStruct) lookup(key []byte, next *int) *wireField {
	if i := *next; i < len(ws) && ws[i].name == string(key) {
		*next = i + 1
		return &ws[i]
	}
	for i := range ws {
		if ws[i].name == string(key) {
			*next = i + 1
			return &ws[i]
		}
	}
	for i := range ws {
		if strings.EqualFold(string(key), ws[i].name) {
			*next = i + 1
			return &ws[i]
		}
	}
	return nil
}

// wireReader reads one JSON document of the result wire.
type wireReader struct {
	data  []byte
	off   int
	depth int
	buf   []byte   // unescaped strings
	names []string // decoded strings, shared by their repeats
}

func (r *wireReader) fail(format string, args ...any) error {
	return fmt.Errorf("tracep: result JSON at offset %d: %s", r.off, fmt.Sprintf(format, args...))
}

// mismatch reports a value of the wrong JSON type for the named field.
func (r *wireReader) mismatch(what string) error {
	if r.off >= len(r.data) {
		return r.fail("unexpected end of input")
	}
	return r.fail("unexpected %q reading %s", r.data[r.off], what)
}

// peek skips whitespace and returns the next byte, 0 at the end of input
// (a NUL in the input, valid nowhere, also reads as 0).
func (r *wireReader) peek() byte {
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the document's value.
func (r *wireReader) end() error {
	if r.peek(); r.off < len(r.data) {
		return r.fail("invalid character %q after the top-level value", r.data[r.off])
	}
	return nil
}

func (r *wireReader) literal(lit string) error {
	if len(r.data)-r.off < len(lit) || string(r.data[r.off:r.off+len(lit)]) != lit {
		return r.fail("invalid literal, want %s", lit)
	}
	r.off += len(lit)
	return nil
}

// null consumes a null literal if one is next and reports whether it did.
func (r *wireReader) null() (bool, error) {
	if r.peek() != 'n' {
		return false, nil
	}
	return true, r.literal("null")
}

// open consumes the opening bracket c of an object or array.
func (r *wireReader) open(c byte, what string) error {
	if r.peek() != c {
		return r.mismatch(what)
	}
	r.off++
	if r.depth++; r.depth > maxWireDepth {
		return r.fail("exceeded max depth")
	}
	return nil
}

// next moves to a container's next item: it consumes the separator before
// it, or the closing bracket, in which case it returns false.
func (r *wireReader) next(close byte, first bool) (bool, error) {
	switch c := r.peek(); {
	case c == close:
		r.off++
		r.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		r.off++
		return true, nil
	}
	return false, r.mismatch(fmt.Sprintf("',' or '%c'", close))
}

// member moves to an object's next member and returns its key, valid
// until the next string is read; ok is false after the closing brace.
func (r *wireReader) member(first bool) (key []byte, ok bool, err error) {
	if ok, err = r.next('}', first); !ok || err != nil {
		return nil, false, err
	}
	if r.peek() != '"' {
		return nil, false, r.mismatch("an object key")
	}
	if key, err = r.str(); err != nil {
		return nil, false, err
	}
	if r.peek() != ':' {
		return nil, false, r.mismatch("':'")
	}
	r.off++
	return key, true, nil
}

// str reads a string and returns its unescaped bytes: a view of the input
// when the string is printable ASCII without escapes, else r.buf. Either
// is valid only until the next string is read.
func (r *wireReader) str() ([]byte, error) {
	start := r.off + 1
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.off = i + 1
			return r.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return r.strSlow(start, i)
		}
	}
	r.off = len(r.data)
	return nil, r.fail("unterminated string")
}

// strSlow unescapes a string from i on, as encoding/json does: a lone or
// mismatched surrogate escape and each byte of invalid UTF-8 become
// U+FFFD.
func (r *wireReader) strSlow(start, i int) ([]byte, error) {
	d := r.data
	b := append(r.buf[:0], d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			r.off, r.buf = i+1, b
			return b, nil
		case c < ' ':
			r.off = i
			return nil, r.fail("control character in string")
		case c == '\\' && i+1 < len(d):
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(d[i:])
				if rr < 0 {
					r.off = i
					return nil, r.fail("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if pair := utf16.DecodeRune(rr, hex4(d[i:])); pair != utf8.RuneError {
						b = utf8.AppendRune(b, pair)
						i += 6
						continue
					}
					rr = utf8.RuneError
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.off = i
				return nil, r.fail("invalid escape \\%c", e)
			}
			i += 2
		case c == '\\':
			i++ // a backslash that ends the input
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, n := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, rr)
			i += n
		}
	}
	r.off, r.buf = len(d), b
	return nil, r.fail("unterminated string")
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var rr rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr<<4 | rune(c)
	}
	return rr
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads a number, checking JSON's grammar, and returns its bytes.
func (r *wireReader) number() ([]byte, error) {
	d, i := r.data, r.off
	digits := func() bool {
		n := i
		for i < len(d) && isDigit(d[i]) {
			i++
		}
		return i > n
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		r.off = i
		return nil, r.fail("invalid number")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.off = i
			return nil, r.fail("invalid number")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.off = i
			return nil, r.fail("invalid number")
		}
	}
	tok := d[r.off:i]
	r.off = i
	return tok, nil
}

// parseUint reads a decimal uint64, refusing signs, fractions, exponents
// and overflow as strconv.ParseUint does.
func parseUint(tok []byte) (uint64, bool) {
	var n uint64
	for _, c := range tok {
		if !isDigit(c) {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, len(tok) > 0
}

// parseInt reads a decimal int64 as strconv.ParseInt does.
func parseInt(tok []byte) (int64, bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	u, ok := parseUint(tok)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// skip reads and discards one value of any type.
func (r *wireReader) skip() error {
	switch c := r.peek(); {
	case c == '{':
		if err := r.open('{', "an object"); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := r.member(first)
			if err != nil || !more {
				return err
			}
			if err := r.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := r.open('[', "an array"); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := r.next(']', first)
			if err != nil || !more {
				return err
			}
			if err := r.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := r.str()
		return err
	case c == 't':
		return r.literal("true")
	case c == 'f':
		return r.literal("false")
	case c == 'n':
		return r.literal("null")
	case c == '-' || isDigit(c):
		_, err := r.number()
		return err
	}
	return r.mismatch("a value")
}

// object reads an object into the struct at base, described by ws.
func (r *wireReader) object(ws wireStruct, base unsafe.Pointer, what string) error {
	if err := r.open('{', what); err != nil {
		return err
	}
	next := 0
	for first := true; ; first = false {
		key, more, err := r.member(first)
		if err != nil || !more {
			return err
		}
		if f := ws.lookup(key, &next); f != nil {
			err = r.field(f, unsafe.Add(base, f.off))
		} else {
			err = r.skip()
		}
		if err != nil {
			return err
		}
	}
}

// field reads the value of one field into p.
func (r *wireReader) field(f *wireField, p unsafe.Pointer) error {
	switch f.kind {
	case wireStrings:
		return readSlice(r, (*[]string)(p), f.name, func(s *string) error {
			return r.scalar(wireString, unsafe.Pointer(s), f.name)
		})
	case wireInt64s:
		return readSlice(r, (*[]int64)(p), f.name, func(n *int64) error {
			return r.scalar(wireInt64, unsafe.Pointer(n), f.name)
		})
	case wireResults:
		return readSlice(r, (*[]*Result)(p), f.name, func(res **Result) error {
			return readPtr(r, res, resultFields, "a result")
		})
	case wireStats:
		return readPtr(r, (**Stats)(p), statsFields, f.name)
	case wireClasses:
		return r.classes(p, f)
	}
	return r.scalar(f.kind, p, f.name)
}

// scalar reads a counter, a seed or a string into p; null leaves it as it
// was. A string the document already holds (a benchmark or model name
// repeated in every cell) is shared rather than copied again; none is a
// view of the input.
func (r *wireReader) scalar(kind wireKind, p unsafe.Pointer, what string) error {
	switch c := r.peek(); {
	case c == 'n':
		return r.literal("null")
	case c == '"' && kind == wireString:
		b, err := r.str()
		if err != nil {
			return err
		}
		for _, s := range r.names {
			if s == string(b) {
				*(*string)(p) = s
				return nil
			}
		}
		s := string(b)
		if len(r.names) < 64 {
			r.names = append(r.names, s)
		}
		*(*string)(p) = s
		return nil
	case (c == '-' || isDigit(c)) && kind != wireString:
		tok, err := r.number()
		if err != nil {
			return err
		}
		if kind == wireUint64 {
			n, ok := parseUint(tok)
			if !ok {
				return r.fail("cannot read %s into %s (uint64)", tok, what)
			}
			*(*uint64)(p) = n
			return nil
		}
		n, ok := parseInt(tok)
		if !ok {
			return r.fail("cannot read %s into %s (int64)", tok, what)
		}
		*(*int64)(p) = n
		return nil
	}
	return r.mismatch(what)
}

// readSlice reads an array into *s with encoding/json's slice rules: null
// sets nil; elements decode over the slice's existing ones (its spare
// capacity included), so a null element keeps what was there; the slice
// ends at the last element read; an empty array gives an empty, non-nil
// slice.
func readSlice[T any](r *wireReader, s *[]T, what string, elem func(*T) error) error {
	if isNull, err := r.null(); isNull || err != nil {
		if isNull {
			*s = nil
		}
		return err
	}
	if err := r.open('[', what); err != nil {
		return err
	}
	v, i := *s, 0
	for first := true; ; first = false {
		more, err := r.next(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i < cap(v) {
			v = v[:max(len(v), i+1)]
		} else {
			var zero T
			v = append(v, zero)
		}
		if err := elem(&v[i]); err != nil {
			return err
		}
		i++
	}
	if i == 0 {
		v = make([]T, 0)
	}
	*s = v[:i]
	return nil
}

// readPtr reads an object of the struct ws describes into *p, over the
// one already there if any; null sets *p to nil.
func readPtr[T any](r *wireReader, p **T, ws wireStruct, what string) error {
	if isNull, err := r.null(); isNull || err != nil {
		*p = nil
		return err
	}
	if r.peek() != '{' {
		return r.mismatch(what)
	}
	if *p == nil {
		*p = new(T)
	}
	return r.object(ws, unsafe.Pointer(*p), what)
}

// classes reads the Table 5 branch classes: elements past the array's
// length are skipped, classes past the JSON array's end are zeroed, and a
// null element or array leaves its classes as they were.
func (r *wireReader) classes(p unsafe.Pointer, f *wireField) error {
	if isNull, err := r.null(); isNull || err != nil {
		return err
	}
	if err := r.open('[', f.name); err != nil {
		return err
	}
	cls := unsafe.Slice((*proc.ClassStats)(p), f.n)
	i := 0
	for first := true; ; first = false {
		more, err := r.next(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		isNull, err := r.null()
		switch {
		case isNull || err != nil:
		case i < len(cls):
			err = r.object(classFields, unsafe.Pointer(&cls[i]), f.name)
		default:
			err = r.skip()
		}
		if err != nil {
			return err
		}
		i++
	}
	clear(cls[min(i, len(cls)):])
	return nil
}

// resultSet reads a set's wire form, which must be an object, into a new
// set.
func (r *wireReader) resultSet() (*ResultSet, error) {
	var wire resultSetJSON
	if err := r.object(resultSetFields, unsafe.Pointer(&wire), "a result set"); err != nil {
		return nil, err
	}
	fresh := NewResultSetGrid(wire.Benchmarks, wire.Models, wire.Seeds)
	for _, res := range wire.Results {
		if res == nil {
			return nil, errNullCell
		}
		fresh.Add(res)
	}
	return fresh, nil
}

var errNullCell = errors.New("tracep: result JSON holds a null cell")

// document reads a whole JSON document: null, which changes nothing, or a
// value that read reads; then nothing but whitespace.
func (r *wireReader) document(read func() error) error {
	if isNull, err := r.null(); err != nil {
		return err
	} else if !isNull {
		if err := read(); err != nil {
			return err
		}
	}
	return r.end()
}

// UnmarshalJSON reads one cell in one pass, over whatever res already
// holds, as encoding/json would; null leaves res unchanged.
func (res *Result) UnmarshalJSON(data []byte) error {
	r := wireReader{data: data}
	return r.document(func() error {
		return r.object(resultFields, unsafe.Pointer(res), "a result")
	})
}

// DecodeResultSetMember decodes the JSON object doc — a tracepd status
// body, say — in one pass and returns the ResultSet held by its member
// name, matched as encoding/json matches a field name (exactly, else
// case-insensitively; a repeated member replaces the first). It returns
// nil when doc is null or the member is absent or null. The other members
// must be well-formed JSON, and are skipped without being typed.
func DecodeResultSetMember(doc []byte, name string) (*ResultSet, error) {
	var rs *ResultSet
	r := wireReader{data: doc}
	err := r.document(func() error {
		if err := r.open('{', "an object"); err != nil {
			return err
		}
		for first := true; ; first = false {
			key, more, err := r.member(first)
			if err != nil || !more {
				return err
			}
			switch {
			case string(key) != name && !strings.EqualFold(string(key), name):
				err = r.skip()
			case r.peek() == 'n':
				rs, err = nil, r.literal("null")
			default:
				rs, err = r.resultSet()
			}
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}
