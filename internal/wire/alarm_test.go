package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"misusedetect/internal/core"
)

// FuzzAppendAlarm is the differential that makes AppendAlarm a drop-in
// for encoding/json: on every alarm it must append json.Marshal's bytes
// plus the newline Encode adds, or fail exactly when Marshal fails, and
// leave what dst already held untouched.
func FuzzAppendAlarm(f *testing.F) {
	add := func(sec int64, nsec int64, offset int, sid, user, kind string, pos, cluster int, version uint64, lik float64) {
		f.Add(sec, nsec, offset, sid, user, kind, pos, cluster, version, math.Float64bits(lik))
	}
	t0 := time.Date(2019, 3, 1, 10, 0, 0, 123456789, time.UTC).Unix()
	add(t0, 123456789, 0, "s0001234", "user-007", "low-likelihood", 17, 3, 1, 0.000123456789)
	add(t0, 0, 0, "s", "", "downward-trend", 0, 0, 0, 0)
	// Strings encoding/json escapes: HTML characters, quotes and
	// backslashes, control bytes, invalid UTF-8, U+2028 and U+2029,
	// and multi-byte runes it copies as they are.
	add(t0, 1, 0, "<script>&</script>", `a"b\c`, "k\x00\n\t", 1, 2, 3, 0.5)
	add(t0, 1, 0, "a<b", "u", "k", 1, 2, 3, 0.5)
	add(t0, 1, 0, "s", "a>b", "k", 1, 2, 3, 0.5)
	add(t0, 1, 0, "s", "u", "a&b", 1, 2, 3, 0.5)
	add(t0, 1, 0, `a"b`, "u", "k", 1, 2, 3, 0.5)
	add(t0, 1, 0, "s", `a\b`, "k", 1, 2, 3, 0.5)
	add(t0, 1, 0, "s", "u", "\x1f", 1, 2, 3, 0.5)
	add(t0, 1, 0, "s", "u", "\x7f", 1, 2, 3, 0.5)
	add(t0, 1, 0, "s\xff\xfe", "u v ", "é✓", 1, 2, 3, 0.5)
	// Floats at encoding/json's format switches, negative zero, the
	// extremes, and the non-finite values it refuses.
	add(t0, 0, 0, "s", "u", "k", -1, -1, math.MaxUint64, 1e-7)
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, 1e-6)
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, 1e21)
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, 999999999999999999999.0)
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, math.Copysign(0, -1))
	add(t0, 0, 0, "s", "u", "k", math.MinInt64, math.MaxInt64, 1, -math.SmallestNonzeroFloat64)
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, math.MaxFloat64)
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, math.Inf(-1))
	add(t0, 0, 0, "s", "u", "k", 1, 1, 1, math.NaN())
	// Time zones: positive, negative, with seconds, a sub-minute
	// negative offset, and offsets of 24 hours and more, which RFC 3339
	// cannot carry; years at and past the four-digit range.
	add(t0, 5, 5*3600+30*60, "s", "u", "k", 1, 1, 1, 0.25)
	add(t0, 5, -(9*3600 + 45*60 + 17), "s", "u", "k", 1, 1, 1, 0.25)
	add(t0, 5, -30, "s", "u", "k", 1, 1, 1, 0.25)
	add(t0, 5, 24*3600, "s", "u", "k", 1, 1, 1, 0.25)
	add(t0, 5, -(100*3600 + 59), "s", "u", "k", 1, 1, 1, 0.25)
	add(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), 0, 0, "s", "u", "k", 1, 1, 1, 0.25)
	add(time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix(), 999999999, 3600, "s", "u", "k", 1, 1, 1, 0.25)
	add(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), 0, 0, "s", "u", "k", 1, 1, 1, 0.25)
	add(time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), 0, 0, "s", "u", "k", 1, 1, 1, 0.25)
	add(math.MinInt64, 0, 0, "s", "u", "k", 1, 1, 1, 0.25)
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int, sid, user, kind string, pos, cluster int, version, likBits uint64) {
		a := core.Alarm{
			Time:         time.Unix(sec, nsec).In(time.FixedZone("", offset)),
			SessionID:    sid,
			User:         user,
			Kind:         kind,
			Position:     pos,
			Cluster:      cluster,
			ModelVersion: version,
			Likelihood:   math.Float64frombits(likBits),
		}
		if offset == 0 {
			a.Time = a.Time.UTC()
		}
		want, wantErr := json.Marshal(&a)
		prefix := []byte("earlier line\n")
		got, err := AppendAlarm(bytes.Clone(prefix), &a)
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendAlarm overwrote dst: %q", got)
		}
		got = got[len(prefix):]
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendAlarm error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("AppendAlarm appended %q with its error %v", got, err)
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("AppendAlarm wrote\n%s\njson.Encoder writes\n%s", got, want)
		}
	})
}
