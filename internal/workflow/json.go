package workflow

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// MarshalJSON encodes a Data unambiguously: scalars as JSON strings, lists as
// JSON arrays (recursively). This is the wire format checkpoints use to
// persist processor outputs, so it must round-trip exactly through
// UnmarshalJSON.
func (d Data) MarshalJSON() ([]byte, error) {
	return appendData(nil, d), nil
}

// UnmarshalJSON decodes the MarshalJSON form: a JSON string becomes a scalar,
// a JSON array becomes a list.
func (d *Data) UnmarshalJSON(b []byte) error {
	if t := bytes.TrimLeft(b, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		items := []Data{}
		if err := json.Unmarshal(b, &items); err != nil {
			return err
		}
		*d = Data{list: items, isList: true}
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	*d = Data{scalar: s}
	return nil
}

// AppendJSON appends the event's JSON encoding to dst — exactly the bytes
// json.Marshal(ev) produces (field order, omitempty, sorted map keys,
// Annotation's untagged field names, RFC 3339 times, encoding/json's string
// escaping), without reflection. It is the persisted payload of a history
// row, so FuzzHistoryJSON pins it to json.Marshal byte for byte. An event
// json.Marshal refuses — a time outside RFC 3339's range — goes through
// json.Marshal, so the error is the same too; dst is then returned as given.
func (ev *HistoryEvent) AppendJSON(dst []byte) ([]byte, error) {
	out, ok := ev.appendJSON(dst)
	if ok {
		return out, nil
	}
	blob, err := json.Marshal(ev)
	if err != nil {
		return dst, err
	}
	return append(dst, blob...), nil
}

// appendJSON is AppendJSON's fast path; false means a time is unencodable.
func (ev *HistoryEvent) appendJSON(b []byte) ([]byte, bool) {
	ok := true
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, `,"type":`...)
	b = appendString(b, string(ev.Type))
	b = append(b, `,"time":`...)
	if b, ok = appendTime(b, ev.Time); !ok {
		return b, false
	}
	b = append(b, `,"run_id":`...)
	b = appendString(b, ev.RunID)
	b = appendStringField(b, `,"workflow_id":`, ev.WorkflowID)
	b = appendStringField(b, `,"workflow_name":`, ev.WorkflowName)
	b = appendStringField(b, `,"activity":`, ev.Activity)
	b = appendStringField(b, `,"service":`, ev.Service)
	b = appendStringField(b, `,"worker":`, ev.Worker)
	b = appendIntField(b, `,"element":`, int64(ev.Element))
	b = appendIntField(b, `,"elements":`, int64(ev.Elements))
	b = appendIntField(b, `,"iterations":`, int64(ev.Iterations))
	b = appendIntField(b, `,"attempt":`, int64(ev.Attempt))
	b = appendDataMapField(b, `,"inputs":`, ev.Inputs)
	b = appendDataMapField(b, `,"outputs":`, ev.Outputs)
	if len(ev.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i, el := range ev.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"element":`...)
			b = strconv.AppendInt(b, int64(el.Index), 10)
			b = appendDataMapField(b, `,"inputs":`, el.Inputs)
			b = appendDataMapField(b, `,"outputs":`, el.Outputs)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(ev.Annotations) > 0 {
		b = append(b, `,"annotations":[`...)
		for i, a := range ev.Annotations {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Key":`...)
			b = appendString(b, a.Key)
			b = append(b, `,"Value":`...)
			b = appendString(b, a.Value)
			b = append(b, `,"Author":`...)
			b = appendString(b, a.Author)
			b = append(b, `,"Date":`...)
			if b, ok = appendTime(b, a.Date); !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendIntField(b, `,"duration":`, int64(ev.Duration))
	b = appendStringField(b, `,"status":`, ev.Status)
	b = appendStringField(b, `,"error":`, ev.Err)
	return append(b, '}'), true
}

func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func appendIntField(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

// appendDataMapField encodes a port map with its keys sorted, as
// encoding/json sorts map keys.
func appendDataMapField(b []byte, key string, m map[string]Data) []byte {
	if len(m) == 0 {
		return b
	}
	var scratch [8]string // stack room for a processor's ports: no allocation
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, key...)
	for i, k := range keys {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(appendString(b, k), ':')
		b = appendData(b, m[k])
	}
	return append(b, '}')
}

// appendData is Data's encoding: a scalar as a JSON string, a list —
// nil or empty included — as a JSON array.
func appendData(b []byte, d Data) []byte {
	if !d.isList {
		return appendString(b, d.scalar)
	}
	b = append(b, '[')
	for i, item := range d.list {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendData(b, item)
	}
	return append(b, ']')
}

// appendTime is time.Time's MarshalJSON — RFC 3339 with nanoseconds, quoted —
// reporting false where that method errors: a year outside [0,9999] or a
// zone offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, bool) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return b, false
	}
	if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("Z07:00"):]
		if c := zone[0]; '0' <= c && c <= '9' || 10*(zone[1]-'0')+zone[2]-'0' >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string encoder with HTML escaping on (what
// json.Marshal does): quote, backslash and control bytes escaped, <, > and &
// as \u003c, \u003e, \u0026, U+2028 and U+2029 as \u2028 and
// \u2029, and each invalid UTF-8 byte replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
