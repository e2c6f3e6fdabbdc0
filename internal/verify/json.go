package verify

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"

	"scalabletcc/internal/mem"
)

// Checkpoints carry the commit log, so a record side keeps the JSON shape
// the map-typed record had: {"<addr>":<version>,…}. Keys are written in
// slice order, and a decoded side keeps the order of its keys, so a record
// round-trips to a deep-equal one. json.Marshal of the old maps wrote keys
// sorted as strings; those checkpoints decode too (DESIGN §33).

// MarshalJSON encodes w as a JSON object keyed by decimal address, in slice
// order. An empty side is {}.
func (w Words) MarshalJSON() ([]byte, error) {
	return w.AppendJSON(make([]byte, 0, 2+24*len(w))), nil
}

// AppendJSON appends the bytes MarshalJSON returns to b. The kernel-checkpoint
// codec writes commit-log sides with it.
func (w Words) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	for i, s := range w {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendUint(b, uint64(s.Addr), 10)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, uint64(s.Version), 10)
	}
	return append(b, '}')
}

var errWordsSyntax = errors.New("verify: record side is not a JSON object of address to version")

// UnmarshalJSON decodes what json.Unmarshal into a map[mem.Addr]mem.Version
// accepts, with the same result: null clears the side, an object merges into
// it, a repeated address keeps its first position and its last version, and
// a key or value that is not a decimal uint64 (a null value is 0) fails.
//
// encoding/json hands UnmarshalJSON only well-formed JSON, so the scan below
// checks just what the map form would refuse. It is a scan rather than a
// json.Decoder Token loop because the Token loop, with its allocation per
// key and per value, decodes a commit log nearly three times slower than
// the map form did.
func (w *Words) UnmarshalJSON(data []byte) error {
	d := sideScanner{b: data}
	if d.next("null") {
		*w = nil
		return d.end()
	}
	if !d.next("{") {
		return errWordsSyntax
	}
	out := *w
	if out == nil {
		out = make(Words, 0, bytes.Count(data, []byte{':'}))
	}
	for !d.next("}") {
		if len(out) > len(*w) && !d.next(",") { // after the first entry
			return errWordsSyntax
		}
		a, err := d.key()
		if err != nil {
			return err
		}
		if !d.next(":") {
			return errWordsSyntax
		}
		v, err := d.version()
		if err != nil {
			return err
		}
		out = append(out, mem.ReadSample{Addr: mem.Addr(a), Version: mem.Version(v)})
	}
	if err := d.end(); err != nil {
		return err
	}
	*w = lastWins(out)
	return nil
}

// sideScanner walks one well-formed JSON value.
type sideScanner struct {
	b []byte
	i int
}

// next skips white space and then consumes tok if the input continues with it.
func (d *sideScanner) next(tok string) bool {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
	if bytes.HasPrefix(d.b[d.i:], []byte(tok)) {
		d.i += len(tok)
		return true
	}
	return false
}

// end reports whether only white space is left.
func (d *sideScanner) end() error {
	if d.next(""); d.i != len(d.b) {
		return errWordsSyntax
	}
	return nil
}

// key reads an object key as a decimal address. A key with an escape is
// unquoted by encoding/json, which owns JSON's escaping rules.
func (d *sideScanner) key() (uint64, error) {
	if !d.next(`"`) {
		return 0, errWordsSyntax
	}
	start, escaped := d.i, false
	for ; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
		if d.b[d.i] == '\\' {
			escaped = true
			d.i++
		}
	}
	if d.i >= len(d.b) {
		return 0, errWordsSyntax
	}
	d.i++
	key := d.b[start : d.i-1]
	if escaped {
		var s string
		if err := json.Unmarshal(d.b[start-1:d.i], &s); err != nil {
			return 0, err
		}
		key = []byte(s)
	}
	a, err := strconv.ParseUint(string(key), 10, 64)
	if err != nil {
		return 0, errors.New("verify: record address " + strconv.Quote(string(key)) + " is not a decimal uint64")
	}
	return a, nil
}

// version reads a value: the digits of a decimal uint64, or null for 0. A
// number with a sign, fraction or exponent leaves input that is neither a
// comma nor a closing brace, which the caller refuses.
func (d *sideScanner) version() (uint64, error) {
	if d.next("null") {
		return 0, nil
	}
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	v, err := strconv.ParseUint(string(d.b[start:d.i]), 10, 64)
	if err != nil {
		return 0, errors.New("verify: record version " + strconv.Quote(string(d.b[start:d.i])) + " is not a decimal uint64")
	}
	return v, nil
}

// lastWins folds each repeated address of w into its first position with
// its last version, as assigning into a map does. Empty is nil.
func lastWins(w Words) Words {
	if len(w) == 0 {
		return nil
	}
	pos := make(map[mem.Addr]int, len(w))
	n := 0
	for _, s := range w {
		if i, ok := pos[s.Addr]; ok {
			w[i].Version = s.Version
			continue
		}
		pos[s.Addr] = n
		w[n] = s
		n++
	}
	return w[:n]
}
