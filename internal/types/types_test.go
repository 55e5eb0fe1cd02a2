package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "TEXT", KindBool: "BOOL", KindDate: "DATE", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-42), "-42"},
		{NewFloat(2.5), "2.5"},
		{NewString("abc"), "abc"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{MustDate("1995-03-15"), "1995-03-15"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt(7).AsFloat(); !ok || f != 7 {
		t.Errorf("int AsFloat = %v %v", f, ok)
	}
	if f, ok := NewFloat(1.5).AsFloat(); !ok || f != 1.5 {
		t.Errorf("float AsFloat = %v %v", f, ok)
	}
	if f, ok := NewBool(true).AsFloat(); !ok || f != 1 {
		t.Errorf("bool AsFloat = %v %v", f, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string AsFloat should fail")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("null AsFloat should fail")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewInt(3), NewInt(2), 1, true},
		{NewInt(1), NewFloat(1.5), -1, true},
		{NewFloat(2.5), NewInt(2), 1, true},
		{NewFloat(2), NewInt(2), 0, true},
		{NewString("a"), NewString("b"), -1, true},
		{NewString("b"), NewString("b"), 0, true},
		{NewBool(false), NewBool(true), -1, true},
		{MustDate("1995-01-01"), MustDate("1996-01-01"), -1, true},
		{MustDate("1995-01-01"), NewInt(9131), 0, true}, // dates are numeric
		{Null, NewInt(1), 0, false},
		{NewInt(1), Null, 0, false},
		{NewString("a"), NewInt(1), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && sign(cmp) != c.cmp) {
			t.Errorf("Compare(%v, %v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("3 == 3.0 expected")
	}
	if Equal(Null, Null) {
		t.Error("NULL must not equal NULL")
	}
	if Equal(NewString("a"), NewString("b")) {
		t.Error("a != b")
	}
}

func TestCompatible(t *testing.T) {
	if !Compatible(KindInt, KindFloat) || !Compatible(KindDate, KindInt) {
		t.Error("numeric kinds should be compatible")
	}
	if !Compatible(KindNull, KindString) {
		t.Error("null compatible with anything")
	}
	if Compatible(KindString, KindInt) {
		t.Error("string and int are incompatible")
	}
}

func TestToSortKeyOrderPreserving(t *testing.T) {
	a, _ := NewString("apple").ToSortKey()
	b, _ := NewString("banana").ToSortKey()
	if a >= b {
		t.Errorf("sort key order violated: %g >= %g", a, b)
	}
	n, ok := NewInt(12).ToSortKey()
	if !ok || n != 12 {
		t.Errorf("int sort key = %g", n)
	}
	if _, ok := Null.ToSortKey(); ok {
		t.Error("null has no sort key")
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{
		"1970-01-01", "1992-02-29", "1995-06-17", "1998-12-31",
		"2000-02-29", "2001-03-01", "1900-03-01", "2026-07-06",
	} {
		v := MustDate(s)
		if got := v.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
	if MustDate("1970-01-01").I != 0 {
		t.Errorf("epoch should be day 0, got %d", MustDate("1970-01-01").I)
	}
	if MustDate("1970-01-02").I != 1 {
		t.Errorf("1970-01-02 should be day 1")
	}
	if MustDate("1971-01-01").I != 365 {
		t.Errorf("1971-01-01 should be day 365, got %d", MustDate("1971-01-01").I)
	}
}

func TestParseDateErrors(t *testing.T) {
	for _, s := range []string{"", "1995", "1995-13-01", "1995-02-29", "1995-00-10", "1995-01-32", "abcd-ef-gh"} {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) should fail", s)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		days := int64(raw%80000) - 20000 // ~1915 to ~2189
		y, m, d := FromDays(days)
		return ToDays(y, m, d) == days && m >= 1 && m <= 12 && d >= 1 && d <= 31
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"hello", "%x%", false},
		{"special packages requests", "%special%requests%", true},
		{"special packages", "%special%requests%", false},
		{"aaa", "a%a", true},
		{"ab", "a%b%c", false},
		{"abc", "___", true},
		{"abc", "____", false},
		{"mississippi", "%issip%", true},
		{"mississippi", "%issib%", false},
		// A '%' in the pattern is a wildcard even where s holds a '%'.
		{"al%0", "%al%", true},
		{"special%0", "%%%c%al%", true},
		{"%", "%", true},
		{"%x", "%", true},
		{"%x", "%%", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMatchLikeProperty(t *testing.T) {
	// Every string matches "%"+s[i:j]+"%" for any substring.
	f := func(s string, i, j uint8) bool {
		if len(s) == 0 {
			return true
		}
		a := int(i) % len(s)
		b := a + int(j)%(len(s)-a+1)
		sub := s[a:b]
		if strings.ContainsAny(sub, "%_") {
			return true // wildcard bytes in the needle change semantics
		}
		return MatchLike(s, "%"+sub+"%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeCostOpsGrowsWithLength(t *testing.T) {
	if LikeCostOps(100) <= LikeCostOps(10) {
		t.Error("cost should grow with string length")
	}
	if LikeCostOps(0) <= 0 {
		t.Error("cost should be positive even for empty strings")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}
