package sql

import "testing"

var benchQueries = map[string]string{
	"point": `SELECT a FROM t WHERE id = 42`,
	"tpchQ1": `SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
		sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*)
		FROM lineitem WHERE l_shipdate <= date '1998-09-01'
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
	"nested": `SELECT c_count, count(*) AS custdist
		FROM (SELECT c_custkey, count(o_orderkey) AS c_count
		      FROM customer LEFT OUTER JOIN orders
		        ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
		      GROUP BY c_custkey) c_orders
		GROUP BY c_count ORDER BY custdist DESC, c_count DESC`,
}

func BenchmarkParse(b *testing.B) {
	for name, q := range benchQueries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Parse(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLex(b *testing.B) {
	q := benchQueries["tpchQ1"]
	for i := 0; i < b.N; i++ {
		if _, err := lex(nil, q); err != nil {
			b.Fatal(err)
		}
	}
}
