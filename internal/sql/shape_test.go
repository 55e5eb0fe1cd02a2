package sql

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dbvirt/internal/types"
)

// shapeSeeds are the ledger's oltp statements and olap queries, the
// shapes a session's statement cache serves.
var shapeSeeds = []string{
	"SELECT a_bal FROM account WHERE a_id = 4242",
	"SELECT a_id, a_bal FROM account WHERE a_id >= 632 LIMIT 10",
	"INSERT INTO account VALUES (20001, 512.25)",
	"UPDATE account SET a_bal = a_bal + 1.0 WHERE a_id = 17",
	"DELETE FROM account WHERE a_id = 9",
	`SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
		sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*)
	FROM lineitem WHERE l_shipdate <= date '1998-08-01'
	GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	`SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)), o_orderdate
	FROM customer, orders, lineitem
	WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
	  AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15'
	GROUP BY o_orderkey, o_orderdate ORDER BY 2 DESC, o_orderdate LIMIT 10`,
	`SELECT o_orderpriority, count(*) FROM orders, lineitem
	WHERE l_orderkey = o_orderkey AND o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
	  AND l_commitdate < l_receiptdate
	GROUP BY o_orderpriority ORDER BY o_orderpriority`,
	`SELECT sum(l_extendedprice * l_discount) FROM lineitem
	WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
	  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
	`SELECT c_custkey, count(o_orderkey) FROM customer LEFT OUTER JOIN orders
	  ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
	GROUP BY c_custkey`,
	`SELECT c_count, count(*) AS custdist
	FROM (SELECT c_custkey, count(o_orderkey) AS c_count
	      FROM customer LEFT OUTER JOIN orders
	        ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
	      GROUP BY c_custkey) c_orders
	GROUP BY c_count ORDER BY custdist DESC, c_count DESC`,
	`SELECT count(*), sum(l_extendedprice * l_discount) FROM lineitem
	WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
	`SELECT count(*), sum(l_quantity) FROM lineitem
	WHERE l_commitdate >= date '1995-01-01' AND l_commitdate < date '1995-03-01'`,
	"SELECT a FROM t WHERE a IN (1, -2, - -3.5) AND b = -(4) OR c <> 'x'",
	"UPDATE t SET a = -7, b = 'it''s' WHERE d = DATE '2020-02-29'",
}

// corpusSeeds reads the inputs committed under testdata/fuzz/FuzzParse.
func corpusSeeds(f *testing.F) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, s)
	}
	return out
}

// render writes the scanned statement's tokens back as text, space
// separated, with the text of the literal token at index i given by lit.
func render(sh *Shape, lit func(i int, t token) string) string {
	var b strings.Builder
	for i, t := range sh.toks {
		switch t.kind {
		case tokEOF:
			continue
		case tokNumber, tokString:
			b.WriteString(lit(i, t))
		default:
			b.WriteString(t.text)
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// otherValue draws another literal of t's lexical kind: digits for an
// integer, digits with a point for a float, and for a string text, a date
// or a malformed date. Some draws are out of range, so the conversion
// failures are exercised too.
func otherValue(rng *rand.Rand, t token) string {
	switch {
	case t.kind == tokString:
		s := []string{"", "x y", "it's", "1995-03-15", "2020-02-30", "bad", "BUILDING"}[rng.Intn(7)]
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	case numberKind(t.text) == types.KindFloat:
		if rng.Intn(8) == 0 {
			return strings.Repeat("9", 400) + ".5"
		}
		return fmt.Sprintf("%d.%d", rng.Intn(1000), rng.Intn(100))
	default:
		if rng.Intn(8) == 0 {
			return "99999999999999999999"
		}
		return strconv.Itoa(rng.Intn(100000))
	}
}

// TestShapeClearsStaleTokens: a statement scanned into a buffer a longer
// one used before leaves no token of the longer one behind, so the buffer
// keeps only the last statement's text alive — also when the scan fails.
func TestShapeClearsStaleTokens(t *testing.T) {
	var sh Shape
	for _, src := range []string{
		"INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')",
		"UPDATE t SET b = 'x' WHERE a = 1",
		"SELECT 'unterminated",
		"SELECT a FROM t",
	} {
		err := sh.Scan(src)
		if strings.Contains(src, "unterminated") != (err != nil) {
			t.Fatalf("%q: scan error %v", src, err)
		}
		for i, tok := range sh.toks[len(sh.toks):cap(sh.toks)] {
			if tok != (token{}) {
				t.Fatalf("after %q: slot %d past the end holds %+v", src, len(sh.toks)+i, tok)
			}
		}
	}
}

// sameError reports whether two parse outcomes fail alike.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// FuzzStatementShape checks statement templates against the parser. For
// any input, the template parsed from its shape is the input's parse (and
// fails with the parse's error), and stays so when Set writes the input's
// own literals back. Re-rendered with other values of the same kinds, the
// shape still matches the template, and Set either yields the parse of the
// new text or fails exactly where that parse fails; a changed fixed
// literal (a LIMIT count) makes a different template, which again agrees
// with the parser.
func FuzzStatementShape(f *testing.F) {
	for _, seeds := range [][]string{parseSeeds, corpusSeeds(f), shapeSeeds} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := Parse(src)
		var sh Shape
		var tpl *Template
		err := sh.Scan(src)
		if err == nil {
			tpl, err = ParseTemplate(&sh)
		}
		if !sameError(err, wantErr) {
			t.Fatalf("%q: template error %v, Parse error %v", src, err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !tpl.Matches(&sh) || !tpl.Set(&sh) {
			t.Fatalf("%q: the template rejects its own statement", src)
		}
		if !reflect.DeepEqual(tpl.Stmt, want) {
			t.Fatalf("%q: template %#v, Parse %#v", src, tpl.Stmt, want)
		}

		param := map[int]bool{}
		for _, pm := range tpl.params {
			param[pm.tok] = true
		}
		rng := rand.New(rand.NewSource(int64(len(src))))
		for trial := 0; trial < 8; trial++ {
			keepFixed := trial%2 == 0
			other := render(&sh, func(i int, tok token) string {
				if !param[i] && keepFixed {
					if tok.kind == tokString {
						return "'" + strings.ReplaceAll(tok.text, "'", "''") + "'"
					}
					return tok.text
				}
				return otherValue(rng, tok)
			})
			want, wantErr := Parse(other)
			var sh2 Shape
			if err := sh2.Scan(other); err != nil {
				t.Fatalf("%q re-rendered as %q does not lex: %v", src, other, err)
			}
			if string(sh2.Key()) != string(sh.Key()) {
				t.Fatalf("%q re-rendered as %q changed the shape key", src, other)
			}
			if !tpl.Matches(&sh2) {
				if keepFixed {
					t.Fatalf("%q re-rendered as %q with its fixed literals kept does not match", src, other)
				}
				fresh, err := ParseTemplate(&sh2)
				if !sameError(err, wantErr) || err == nil && !reflect.DeepEqual(fresh.Stmt, want) {
					t.Fatalf("%q: template of %q disagrees with Parse (%v vs %v)", src, other, err, wantErr)
				}
				continue
			}
			if !tpl.Set(&sh2) {
				if wantErr == nil {
					t.Fatalf("%q: Set rejects the values of %q, which Parse accepts", src, other)
				}
				continue
			}
			if wantErr != nil {
				t.Fatalf("%q: Set accepts the values of %q, which Parse rejects: %v", src, other, wantErr)
			}
			if !reflect.DeepEqual(tpl.Stmt, want) {
				t.Fatalf("%q: template set from %q is %#v, Parse %#v", src, other, tpl.Stmt, want)
			}
		}
	})
}
