package sql

import (
	"strings"
	"testing"
)

// parseSeeds are FuzzParse's seed inputs; FuzzStatementShape starts from
// them too.
var parseSeeds = []string{
	"SELECT 1",
	"SELECT * FROM t",
	"SELECT a, b FROM t WHERE a > 10 ORDER BY b LIMIT 5;",
	"SELECT count(*) FROM orders WHERE o_orderdate >= '1993-07-01'",
	"SELECT l_orderkey, sum(l_extendedprice) FROM lineitem GROUP BY l_orderkey",
	"SELECT a FROM t -- trailing comment",
	"SELECT 'it''s' FROM t",
	"select\n\ta\nfrom\tt\nwhere a = 'x y'",
	"CREATE TABLE t (a INT)",
	"INSERT INTO t VALUES (1, 'x')",
	"",
	";",
	"--",
	"SELECT",
	"'unterminated",
	"SELECT 1;;",
	"SELECT a FROM t LIMIT 0",
	"SELECT a FROM t LIMIT 9223372036854775807",
	"SELECT a FROM t LIMIT 99999999999999999999",
	"\x00\xff",
}

// FuzzParse drives the lexer and parser with arbitrary input. The
// invariants: never panic, fail with a non-empty diagnostic, behave
// deterministically, and treat surrounding whitespace as insignificant.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("Parse(%q): error with empty message", src)
			}
			return
		}
		if stmt == nil {
			t.Fatalf("Parse(%q): nil statement without error", src)
		}
		// Deterministic: an accepted input is accepted again.
		if _, err2 := Parse(src); err2 != nil {
			t.Fatalf("Parse(%q): accepted once, rejected on retry: %v", src, err2)
		}
		// Surrounding whitespace carries no meaning.
		for _, variant := range []string{" " + src, src + "\n", "\t" + src + " \n"} {
			if _, err := Parse(variant); err != nil {
				t.Fatalf("Parse(%q) ok but whitespace variant %q rejected: %v", src, variant, err)
			}
		}
		// A trailing comment after a complete statement is skipped like
		// whitespace (comments terminate at end of input too).
		if !strings.HasSuffix(src, ";") {
			if _, err := Parse(src + " -- c"); err != nil {
				t.Fatalf("Parse(%q) ok but with trailing comment rejected: %v", src, err)
			}
		}
	})
}
