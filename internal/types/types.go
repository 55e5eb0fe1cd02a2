// Package types defines the value model of the database engine: column
// kinds, runtime values, comparisons, and the date representation shared by
// the parser, catalog, optimizer, and executor.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the data types supported by the engine.
type Kind uint8

// Supported column kinds. Date is stored as days since 1970-01-01.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat || k == KindDate }

// Value is a single runtime value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64   // KindInt, KindDate (days since epoch), KindBool (0/1)
	F    float64 // KindFloat
	S    string  // KindString
}

// Null is the NULL value.
var Null = Value{Kind: KindNull}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewDate returns a date value from days since 1970-01-01.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the boolean payload; valid only for KindBool.
func (v Value) Bool() bool { return v.I != 0 }

// AsFloat converts any numeric value (int, float, date, bool) to float64.
// It is the common domain used by statistics and selectivity estimation.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt, KindDate, KindBool:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// String formats the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		y, m, d := FromDays(v.I)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	default:
		return fmt.Sprintf("value(kind=%d)", v.Kind)
	}
}

// Compatible reports whether two kinds can be compared with each other.
func Compatible(a, b Kind) bool {
	if a == b || a == KindNull || b == KindNull {
		return true
	}
	return a.Numeric() && b.Numeric()
}

// Compare orders two non-NULL values of compatible kinds: -1 if a < b,
// 0 if equal, +1 if a > b. Comparing a NULL or incompatible kinds returns
// ok=false; SQL three-valued logic is handled by the caller.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		return strings.Compare(a.S, b.S), true
	case a.Kind == KindBool && b.Kind == KindBool:
		return int(a.I - b.I), true
	case a.Kind.Numeric() && b.Kind.Numeric():
		if a.Kind == KindFloat || b.Kind == KindFloat {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			default:
				return 0, true
			}
		}
		switch {
		case a.I < b.I:
			return -1, true
		case a.I > b.I:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal under Compare semantics.
// NULL is not equal to anything, including NULL.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// ToSortKey maps a value onto the real line for histogram construction and
// selectivity interpolation, mirroring PostgreSQL's convert_to_scalar.
// Strings map via their first eight bytes; non-representable values report
// ok=false.
func (v Value) ToSortKey() (float64, bool) {
	if f, ok := v.AsFloat(); ok {
		return f, true
	}
	if v.Kind == KindString {
		var key float64
		scale := 1.0
		for i := 0; i < 8; i++ {
			scale /= 256
			var b byte
			if i < len(v.S) {
				b = v.S[i]
			}
			key += float64(b) * scale
		}
		return key, true
	}
	return 0, false
}

// daysBeforeMonth[m] is the number of days before month m (1-based) in a
// non-leap year.
var daysBeforeMonth = [13]int64{0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334}

func isLeap(y int64) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// ToDays converts a civil date to days since 1970-01-01. It is a pure
// function with no time-zone dependence (unlike time.Time).
func ToDays(year, month, day int) int64 {
	y := int64(year)
	// Days from 0001-01-01 to year-01-01 (proleptic Gregorian).
	yd := 365*(y-1) + (y-1)/4 - (y-1)/100 + (y-1)/400
	d := yd + daysBeforeMonth[month] + int64(day) - 1
	if month > 2 && isLeap(y) {
		d++
	}
	const epochDays = 719162 // days from 0001-01-01 to 1970-01-01
	return d - epochDays
}

// FromDays converts days since 1970-01-01 back to a civil date.
func FromDays(days int64) (year, month, day int) {
	d := days + 719162 // days since 0001-01-01
	// Estimate the year, then correct.
	y := d/365 + 1
	for {
		yd := 365*(y-1) + (y-1)/4 - (y-1)/100 + (y-1)/400
		if yd > d {
			y--
			continue
		}
		rem := d - yd
		leapAdd := int64(0)
		if isLeap(y) {
			leapAdd = 1
		}
		if rem >= 365+leapAdd {
			y++
			continue
		}
		m := 12
		for m > 1 {
			start := daysBeforeMonth[m]
			if m > 2 {
				start += leapAdd
			}
			if rem >= start {
				break
			}
			m--
		}
		start := daysBeforeMonth[m]
		if m > 2 {
			start += leapAdd
		}
		return int(y), m, int(rem - start + 1)
	}
}

// ParseDate parses "YYYY-MM-DD" into a date value.
func ParseDate(s string) (Value, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return Null, fmt.Errorf("types: invalid date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || y < 1 || m < 1 || m > 12 || d < 1 || d > 31 {
		return Null, fmt.Errorf("types: invalid date %q", s)
	}
	maxDay := []int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}[m-1]
	if m == 2 && isLeap(int64(y)) {
		maxDay = 29
	}
	if d > maxDay {
		return Null, fmt.Errorf("types: invalid date %q", s)
	}
	return NewDate(ToDays(y, m, d)), nil
}

// MustDate parses a date literal or panics; for tests and generators.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// MatchLike implements SQL LIKE matching with '%' (any run) and '_' (any
// single byte) wildcards, by iterative backtracking. The cost of a call is
// O(len(s) * wildcards), which is what makes LIKE-heavy queries CPU-bound.
func MatchLike(s, pattern string) bool {
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%': // a wildcard, even facing a '%' in s
			star, starSi = pi, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// LikeCostOps estimates the CPU operations one LIKE evaluation over a
// string of length n costs in the simulator; shared by the executor
// (charging) and nothing else, but kept here next to MatchLike.
func LikeCostOps(n int) float64 { return 20 + 8*float64(n) }
