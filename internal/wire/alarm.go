package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"time"

	"misusedetect/internal/core"
)

// AppendAlarm appends a's wire line to dst: exactly the bytes
// json.NewEncoder(w).Encode(a) writes, trailing newline included. An
// alarm whose strings need escaping, whose likelihood is not finite or
// whose time RFC 3339 cannot carry is encoded by encoding/json, so the
// bytes are Encode's by construction; when encoding/json refuses the
// alarm, dst comes back unchanged with its error.
func AppendAlarm(dst []byte, a *core.Alarm) ([]byte, error) {
	_, offset := a.Time.Zone()
	if year := a.Time.Year(); year < 0 || year > 9999 || offset <= -24*60*60 || offset >= 24*60*60 ||
		math.IsInf(a.Likelihood, 0) || math.IsNaN(a.Likelihood) ||
		!plain(a.SessionID) || !plain(a.User) || !plain(a.Kind) {
		// A copy, so that a itself does not escape to the heap.
		c := *a
		b, err := json.Marshal(&c)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, `{"time":"`...)
	dst = a.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","session_id":"`...)
	dst = append(dst, a.SessionID...)
	dst = append(dst, `","user":"`...)
	dst = append(dst, a.User...)
	dst = append(dst, `","kind":"`...)
	dst = append(dst, a.Kind...)
	dst = append(dst, `","position":`...)
	dst = strconv.AppendInt(dst, int64(a.Position), 10)
	dst = append(dst, `,"cluster":`...)
	dst = strconv.AppendInt(dst, int64(a.Cluster), 10)
	dst = append(dst, `,"model_version":`...)
	dst = strconv.AppendUint(dst, a.ModelVersion, 10)
	dst = append(dst, `,"likelihood":`...)
	dst = appendFloat(dst, a.Likelihood)
	return append(dst, "}\n"...), nil
}

// plain reports whether encoding/json writes s between its quotes as it
// is: no control byte, no byte of a multi-byte UTF-8 sequence, and none
// of the bytes it escapes (" and \, and < > & under HTML escaping).
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendFloat appends a finite f the way encoding/json writes a float64:
// the shortest 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude,
// with a two-digit negative exponent trimmed (e-07 to e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
