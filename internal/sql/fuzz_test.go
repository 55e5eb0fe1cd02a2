package sql

import (
	"bytes"
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
	// Unsupported forms other SQL dialects accept: each must fail with a
	// positioned error (TestUnsupportedSyntaxErrors), never panic.
	"SELECT a FROM t LIMIT 5 OFFSET 10",
	"INSERT INTO t VALUES (1) RETURNING a",
	"ALTER TABLE t ADD COLUMN b INT",
	"CREATE TABLE IF NOT EXISTS t (a INT)",
	"DROP TABLE IF EXISTS t",
	"CREATE DATABASE d",
	"DROP DATABASE d",
	"USE d",
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

// FuzzNormalize checks the identity invariants of Normalize and Split.
// The what-if model's statement cache and the telemetry sketches key on
// Normalize's text, so these properties are correctness, not hygiene: a
// violation means two differently-behaving statements could share a
// cache entry, or one statement could occupy several.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"SELECT 1",
		"  SELECT\t*\nFROM t  ;  ",
		"SELECT a -- comment\nFROM t",
		"SELECT 'a  --  b' FROM t",
		"SELECT 'it''s  fine' FROM t",
		"SELECT 1;;",
		"select a from t where b = 'x'",
		"-- only a comment",
		"",
		";",
		"'",
		"SELECT a--b\nFROM t",
		"\x00 \xff'",
		"CREATE TABLE t (a INT); -- don't split here\nINSERT INTO t VALUES (1); SELECT a FROM t",
		"INSERT INTO t VALUES ('a;b');SELECT 'oops",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		norm := Normalize(src)

		// Idempotent: normalizing a normalized statement is the identity.
		// Without this, raw and re-normalized lookups of the same statement
		// would miss each other in the cache.
		if again := Normalize(norm); again != norm {
			t.Fatalf("not idempotent:\n src %q\n 1st %q\n 2nd %q", src, norm, again)
		}
		// Normalization only removes or collapses; it never invents bytes.
		if len(norm) > len(src) {
			t.Fatalf("grew input: len %d -> %d\n src %q\n out %q", len(src), len(norm), src, norm)
		}
		// A parseable statement stays parseable, as the same statement:
		// its shape key is unchanged but for the trailing semicolon
		// Normalize drops.
		if _, err := Parse(src); err == nil && norm != "" {
			if _, err := Parse(norm); err != nil {
				t.Fatalf("parseable input normalized to unparseable text:\n src %q\n out %q\n err %v", src, norm, err)
			}
			var a, b Shape
			if a.Scan(src) != nil || b.Scan(norm) != nil {
				t.Fatalf("parseable text does not scan:\n src %q\n out %q", src, norm)
			}
			if want := bytes.TrimSuffix(a.Key(), []byte("; ")); !bytes.Equal(want, b.Key()) {
				t.Fatalf("shape changed:\n src %q key %q\n out %q key %q", src, want, norm, b.Key())
			}
		}
		// Outside string literals nothing but single spaces separate the
		// tokens of lexable text: no tabs, newlines, or double spaces
		// survive. (Text the lexer rejects comes back only trimmed.)
		if _, err := lex(nil, src); err == nil {
			inStr := false
			for i := 0; i < len(norm); i++ {
				c := norm[i]
				if inStr {
					if c == '\'' {
						inStr = false
					}
					continue
				}
				switch c {
				case '\'':
					inStr = true
				case '\t', '\n', '\r':
					t.Fatalf("control whitespace outside literal at %d:\n src %q\n out %q", i, src, norm)
				case ' ':
					if i+1 < len(norm) && norm[i+1] == ' ' {
						t.Fatalf("double space outside literal at %d:\n src %q\n out %q", i, src, norm)
					}
				}
			}
		}

		// Split: every piece is one non-empty statement's text, with no
		// semicolon token left in it.
		pieces, _ := Split(src)
		for _, p := range pieces {
			toks, err := lex(nil, p)
			if err != nil {
				t.Fatalf("piece %q of %q does not lex: %v", p, src, err)
			}
			if len(toks) < 2 {
				t.Fatalf("empty piece %q of %q", p, src)
			}
			for _, tok := range toks {
				if tok.isSemicolon() {
					t.Fatalf("piece %q of %q holds a semicolon", p, src)
				}
			}
		}
	})
}
