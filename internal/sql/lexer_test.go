package sql

import (
	"fmt"
	"reflect"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT 1", "SELECT 1"},
		{"  SELECT\t*\nFROM   t ;  ", "SELECT * FROM t"},
		{"SELECT c FROM t;", "SELECT c FROM t"},
		{"SELECT 'a  b' FROM t", "SELECT 'a  b' FROM t"},
		{"SELECT  'it''s   fine'  FROM\nt", "SELECT 'it''s   fine' FROM t"},
		{"SELECT c\r\nFROM t\r\nWHERE c LIKE '%  x%'", "SELECT c FROM t WHERE c LIKE '%  x%'"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr string
	}{
		{"", nil, ""},
		{" ; ;; ", nil, ""},
		{"SELECT 1", []string{"SELECT 1"}, ""},
		{"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); -- check it\nSELECT a FROM t",
			[]string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)", "SELECT a FROM t"}, ""},
		{"CREATE TABLE t (a INT); -- don't split here\nINSERT INTO t VALUES (1); SELECT a FROM t",
			[]string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)", "SELECT a FROM t"}, ""},
		{"INSERT INTO t VALUES ('a;b');SELECT a\n-- inner\nFROM t;",
			[]string{"INSERT INTO t VALUES ('a;b')", "SELECT a\n-- inner\nFROM t"}, ""},
		{"SELECT 1; SELECT 2 + 'oops", []string{"SELECT 1"}, "sql: unterminated string at offset 21"},
		{"SELECT 1; SELECT 2; #", []string{"SELECT 1", "SELECT 2"}, "sql: unexpected character '#' at offset 20"},
	}
	for _, c := range cases {
		got, err := Split(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Split(%q) = %q, want %q", c.in, got, c.want)
		}
		if errText := fmt.Sprint(err); c.wantErr == "" && err != nil || c.wantErr != "" && errText != c.wantErr {
			t.Errorf("Split(%q) error %v, want %q", c.in, err, c.wantErr)
		}
	}
}
