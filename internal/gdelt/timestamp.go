package gdelt

import (
	"fmt"
	"time"
)

// Timestamp is a GDELT timestamp in YYYYMMDDHHMMSS form, e.g.
// 20150218230000. The zero value means "missing".
type Timestamp int64

// Epoch is the start of the GDELT 2.0 archive: 18 February 2015 00:00 UTC,
// the first day the Event Database was collected in the 2.0 format.
var Epoch = time.Date(2015, 2, 18, 0, 0, 0, 0, time.UTC)

// EpochTimestamp is Epoch as a Timestamp.
const EpochTimestamp Timestamp = 20150218000000

// IntervalSeconds is the length of one GDELT capture interval: 15 minutes.
const IntervalSeconds = 15 * 60

// IntervalsPerDay is the number of capture intervals in 24 hours (96).
const IntervalsPerDay = 24 * 3600 / IntervalSeconds

// IntervalsPerYear is the number of capture intervals in a 365-day year
// (35040); the paper's year-later outliers sit at this scale.
const IntervalsPerYear = 365 * IntervalsPerDay

// MaxDelay caps a mention's publishing delay in capture intervals: one year
// plus a day (35136, Table VIII's shared maximum). Ingestion clamps delays
// into [0, MaxDelay] and store validation rejects anything outside it, so
// delay-indexed counting tables can be sized MaxDelay+1.
const MaxDelay = IntervalsPerYear + IntervalsPerDay

// MakeTimestamp builds a Timestamp from calendar components.
func MakeTimestamp(year, month, day, hour, min, sec int) Timestamp {
	return Timestamp(int64(year)*1e10 + int64(month)*1e8 + int64(day)*1e6 +
		int64(hour)*1e4 + int64(min)*1e2 + int64(sec))
}

// TimestampFromTime converts a time.Time (taken in UTC) to a Timestamp.
func TimestampFromTime(t time.Time) Timestamp {
	t = t.UTC()
	return MakeTimestamp(t.Year(), int(t.Month()), t.Day(), t.Hour(), t.Minute(), t.Second())
}

// Year returns the calendar year component.
func (ts Timestamp) Year() int { return int(ts / 1e10) }

// Month returns the calendar month component (1..12).
func (ts Timestamp) Month() int { return int(ts / 1e8 % 100) }

// Day returns the day-of-month component.
func (ts Timestamp) Day() int { return int(ts / 1e6 % 100) }

// Hour returns the hour component.
func (ts Timestamp) Hour() int { return int(ts / 1e4 % 100) }

// Minute returns the minute component.
func (ts Timestamp) Minute() int { return int(ts / 1e2 % 100) }

// Second returns the seconds component.
func (ts Timestamp) Second() int { return int(ts % 100) }

// YYYYMMDD returns the date part as an int32 (e.g. 20150218).
func (ts Timestamp) YYYYMMDD() int32 { return int32(ts / 1e6) }

// Time converts the timestamp to a time.Time in UTC. Invalid component
// combinations are normalized the way time.Date normalizes them.
func (ts Timestamp) Time() time.Time {
	return time.Date(ts.Year(), time.Month(ts.Month()), ts.Day(),
		ts.Hour(), ts.Minute(), ts.Second(), 0, time.UTC)
}

// Valid reports whether the timestamp has plausible calendar components and
// round-trips through time.Date unchanged.
func (ts Timestamp) Valid() bool {
	if ts <= 0 {
		return false
	}
	y, mo, d := ts.Year(), ts.Month(), ts.Day()
	h, mi, s := ts.Hour(), ts.Minute(), ts.Second()
	if y < 1979 || y > 2100 || mo < 1 || mo > 12 || d < 1 || d > 31 ||
		h > 23 || mi > 59 || s > 59 {
		return false
	}
	return TimestampFromTime(ts.Time()) == ts
}

// IntervalIndex returns the number of whole 15-minute capture intervals
// between Epoch and the timestamp. Timestamps before Epoch yield negative
// indexes.
func (ts Timestamp) IntervalIndex() int64 {
	sec := ts.Time().Unix() - Epoch.Unix()
	if sec >= 0 {
		return sec / IntervalSeconds
	}
	return -((-sec + IntervalSeconds - 1) / IntervalSeconds)
}

// IntervalStart returns the timestamp of the start of capture interval idx.
func IntervalStart(idx int64) Timestamp {
	return TimestampFromTime(Epoch.Add(time.Duration(idx) * time.Duration(IntervalSeconds) * time.Second))
}

// String renders the timestamp in its canonical 14-digit form.
func (ts Timestamp) String() string { return fmt.Sprintf("%014d", int64(ts)) }

// ParseTimestamp parses a 14-digit YYYYMMDDHHMMSS string. It rejects
// non-digit characters and wrong lengths but does not validate calendar
// plausibility; use Valid for that (the split lets validation count
// malformed vs. implausible defects separately).
func ParseTimestamp(s string) (Timestamp, error) {
	if len(s) != 14 {
		return 0, fmt.Errorf("gdelt: timestamp %q: want 14 digits", s)
	}
	var v int64
	for i := 0; i < 14; i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("gdelt: timestamp %q: non-digit at %d", s, i)
		}
		v = v*10 + int64(c-'0')
	}
	return Timestamp(v), nil
}
