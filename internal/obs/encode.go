package obs

import (
	"encoding/json"
	"strconv"
)

// appendEvent appends e's JSONL wire form, without the newline, to b. The
// bytes are identical to json.Marshal(e): the same field order and
// omitempty rules, the kind as its wire name, and strings escaped as
// encoding/json escapes them (HTML-safe). Only the common case is encoded
// here; a Set holding any byte encoding/json would escape, and a Kind with
// no wire name, take json.Marshal itself, so the encoder never has to
// re-derive encoding/json's escaping rules. FuzzEventLine holds it to that
// contract.
func appendEvent(b []byte, e Event) []byte {
	if int(e.Kind) >= NumKinds {
		return appendMarshal(b, e)
	}
	b = append(b, `{"c":`...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, `,"k":"`...)
	b = append(b, kindNames[e.Kind]...)
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(e.Peer), 10)
	b = appendUintField(b, `,"tid":`, e.TID)
	b = appendUintField(b, `,"tid2":`, e.TID2)
	b = appendUintField(b, `,"addr":`, e.Addr)
	b = appendUintField(b, `,"words":`, e.Words)
	b = appendUintField(b, `,"sr":`, e.SR)
	b = appendUintField(b, `,"sm":`, e.SM)
	if e.Arg != 0 {
		b = append(b, `,"arg":`...)
		b = strconv.AppendInt(b, e.Arg, 10)
	}
	if len(e.Data) > 0 {
		b = append(b, `,"data":[`...)
		for i, w := range e.Data {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, w, 10)
		}
		b = append(b, ']')
	}
	if e.Set != "" {
		b = append(b, `,"set":`...)
		b = AppendString(b, e.Set)
	}
	return append(b, '}')
}

// appendUintField appends an omitempty unsigned field.
func appendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, key...)
	return strconv.AppendUint(b, v, 10)
}

// AppendString appends s as a JSON string, byte-identical to json.Marshal(s).
// Printable ASCII other than the characters encoding/json escapes is copied
// verbatim; anything else (quote, backslash, the HTML-sensitive <, > and &,
// control bytes, and every non-ASCII byte, which covers invalid UTF-8 and
// U+2028/U+2029) falls back to json.Marshal. The kernel-checkpoint codec
// writes its strings through it too.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return appendMarshal(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMarshal appends json.Marshal(v). It is only handed strings and
// Events, neither of which can fail to encode, so the error is dropped.
func appendMarshal(b []byte, v any) []byte {
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}
