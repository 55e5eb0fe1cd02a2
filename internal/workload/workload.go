// Package workload provides the TPC-H-like database generator and query
// set used by the experiments. It stands in for the paper's OSDB build of
// the TPC-H benchmark: a customer/orders/lineitem schema with secondary
// indexes, deterministic seeded data, and analogues of the TPC-H queries
// the paper uses (Q4: I/O-bound; Q13: CPU-bound) plus several others with
// varied resource profiles.
package workload

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"dbvirt/internal/engine"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// Scale sizes the generated database.
type Scale struct {
	Customers     int
	Orders        int
	LinesPerOrder int
	CommentLen    int // orders comment length (drives Q13's CPU cost)
}

// TinyScale is for unit tests.
func TinyScale() Scale {
	return Scale{Customers: 200, Orders: 1000, LinesPerOrder: 3, CommentLen: 60}
}

// SmallScale is for quick experiments.
func SmallScale() Scale {
	return Scale{Customers: 4000, Orders: 24000, LinesPerOrder: 4, CommentLen: 90}
}

// ExperimentScale is sized against the default 64 MiB machine so that the
// lineitem relation exceeds a half-memory buffer pool while orders plus
// customer fit — the regime of the paper's testbed (4 GB database, 2 GB
// VM), which makes Q4 I/O-bound and Q13 CPU-bound.
func ExperimentScale() Scale {
	return Scale{Customers: 20000, Orders: 120000, LinesPerOrder: 4, CommentLen: 90}
}

// Dates bounding o_orderdate, as in TPC-H.
var (
	startDate = types.MustDate("1992-01-01").I
	endDate   = types.MustDate("1998-08-02").I
)

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var returnFlags = []string{"A", "N", "R"}
var lineStatuses = []string{"O", "F"}

var commentWords = []string{
	"furiously", "quickly", "carefully", "blithely", "slyly", "pending",
	"final", "ironic", "express", "regular", "bold", "even", "silent",
	"deposits", "packages", "accounts", "instructions", "theodolites",
	"platelets", "foxes", "ideas", "requests", "pinto", "beans",
}

// Build creates the schema, loads deterministic data, builds the indexes,
// and analyzes all tables through the given session.
func Build(s *engine.Session, sc Scale, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ddl := []string{
		`CREATE TABLE customer (
			c_custkey INT, c_name TEXT, c_mktsegment TEXT,
			c_nationkey INT, c_acctbal FLOAT)`,
		`CREATE TABLE orders (
			o_orderkey INT, o_custkey INT, o_orderstatus TEXT,
			o_totalprice FLOAT, o_orderdate DATE, o_orderpriority TEXT,
			o_comment TEXT)`,
		`CREATE TABLE lineitem (
			l_orderkey INT, l_linenumber INT, l_quantity FLOAT,
			l_extendedprice FLOAT, l_discount FLOAT, l_tax FLOAT,
			l_returnflag TEXT, l_linestatus TEXT,
			l_shipdate DATE, l_commitdate DATE, l_receiptdate DATE)`,
	}
	for _, stmt := range ddl {
		if _, err := s.Exec(stmt); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}

	cust, err := s.DB.Catalog.Table("customer")
	if err != nil {
		return err
	}
	for i := 0; i < sc.Customers; i++ {
		tup := storage.Tuple{
			types.NewInt(int64(i + 1)),
			types.NewString(fmt.Sprintf("Customer#%09d", i+1)),
			types.NewString(segments[rng.Intn(len(segments))]),
			types.NewInt(int64(rng.Intn(25))),
			types.NewFloat(float64(rng.Intn(999999))/100 - 999.99),
		}
		if err := s.InsertTuple(cust, tup); err != nil {
			return err
		}
	}

	orders, err := s.DB.Catalog.Table("orders")
	if err != nil {
		return err
	}
	line, err := s.DB.Catalog.Table("lineitem")
	if err != nil {
		return err
	}
	dateSpan := endDate - startDate
	for o := 0; o < sc.Orders; o++ {
		// Order dates increase with the key: the o_orderdate index is
		// physically correlated, as clustered TPC-H loads are.
		odate := startDate + int64(o)*dateSpan/int64(sc.Orders)
		tup := storage.Tuple{
			types.NewInt(int64(o + 1)),
			types.NewInt(int64(rng.Intn(sc.Customers) + 1)),
			types.NewString([]string{"O", "F", "P"}[rng.Intn(3)]),
			types.NewFloat(1000 + rng.Float64()*100000),
			types.NewDate(odate),
			types.NewString(priorities[rng.Intn(len(priorities))]),
			types.NewString(comment(rng, sc.CommentLen)),
		}
		if err := s.InsertTuple(orders, tup); err != nil {
			return err
		}
		lines := 1 + rng.Intn(2*sc.LinesPerOrder-1) // avg LinesPerOrder
		for ln := 0; ln < lines; ln++ {
			ship := odate + int64(1+rng.Intn(121))
			commit := odate + int64(30+rng.Intn(61))
			receipt := ship + int64(1+rng.Intn(30))
			ltup := storage.Tuple{
				types.NewInt(int64(o + 1)),
				types.NewInt(int64(ln + 1)),
				types.NewFloat(float64(1 + rng.Intn(50))),
				types.NewFloat(900 + rng.Float64()*104000),
				types.NewFloat(float64(rng.Intn(11)) / 100),
				types.NewFloat(float64(rng.Intn(9)) / 100),
				types.NewString(returnFlags[rng.Intn(len(returnFlags))]),
				types.NewString(lineStatuses[rng.Intn(len(lineStatuses))]),
				types.NewDate(ship),
				types.NewDate(commit),
				types.NewDate(receipt),
			}
			if err := s.InsertTuple(line, ltup); err != nil {
				return err
			}
		}
	}

	indexes := []string{
		"CREATE INDEX customer_pk ON customer (c_custkey)",
		"CREATE INDEX orders_pk ON orders (o_orderkey)",
		"CREATE INDEX orders_custkey ON orders (o_custkey)",
		"CREATE INDEX orders_orderdate ON orders (o_orderdate)",
		"CREATE INDEX lineitem_orderkey ON lineitem (l_orderkey)",
		"CREATE INDEX lineitem_shipdate ON lineitem (l_shipdate)",
	}
	for _, stmt := range indexes {
		if _, err := s.Exec(stmt); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}
	if _, err := s.Exec("ANALYZE"); err != nil {
		return err
	}
	// Make the loaded database visible to sessions with other buffer
	// pools (the measurement VMs).
	return s.Checkpoint()
}

// comment builds a pseudo-random comment of roughly n bytes. About 1% of
// comments contain the "special ... requests" phrase that TPC-H Q13
// excludes, so the NOT LIKE predicate does real work.
func comment(rng *rand.Rand, n int) string {
	var sb strings.Builder
	if rng.Intn(100) == 0 {
		sb.WriteString("special packages requests ")
	}
	for sb.Len() < n {
		sb.WriteString(commentWords[rng.Intn(len(commentWords))])
		sb.WriteByte(' ')
	}
	return strings.TrimSpace(sb.String()[:n])
}

// Queries returns a copy of the named query set. Q4 and Q13 are the
// paper's experiment queries; the others round out the workload mix for
// the search-algorithm and SLO experiments.
func Queries() map[string]string { return maps.Clone(catalog) }

// catalog is the named query set, read by Lookup and Query without a copy.
var catalog = map[string]string{
	// Q1-like: pricing summary — sequential scan of lineitem with
	// heavy aggregation. Mixed CPU/IO profile.
	"Q1": `SELECT l_returnflag, l_linestatus,
			sum(l_quantity), sum(l_extendedprice),
			sum(l_extendedprice * (1 - l_discount)),
			avg(l_quantity), count(*)
		FROM lineitem
		WHERE l_shipdate <= date '1998-08-01'
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`,

	// Q3-like: shipping priority — 3-way join with date filters.
	"Q3": `SELECT o_orderkey, sum(l_extendedprice * (1 - l_discount)), o_orderdate
		FROM customer, orders, lineitem
		WHERE c_mktsegment = 'BUILDING'
		  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
		  AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15'
		GROUP BY o_orderkey, o_orderdate
		ORDER BY 2 DESC, o_orderdate LIMIT 10`,

	// Q4-like: order priority checking. The paper's EXISTS subquery is
	// rewritten as a join; the query scans the large lineitem relation
	// and is I/O-bound (lineitem exceeds the buffer pool).
	"Q4": `SELECT o_orderpriority, count(*)
		FROM orders, lineitem
		WHERE l_orderkey = o_orderkey
		  AND o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
		  AND l_commitdate < l_receiptdate
		GROUP BY o_orderpriority
		ORDER BY o_orderpriority`,

	// Q6-like: forecasting revenue change — selective scan arithmetic.
	"Q6": `SELECT sum(l_extendedprice * l_discount)
		FROM lineitem
		WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
		  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,

	// Q13-like: customer distribution. LEFT OUTER JOIN with a NOT LIKE
	// over every order comment plus a large hash aggregation; orders
	// and customer fit in the buffer pool, so the query is CPU-bound.
	"Q13": `SELECT c_custkey, count(o_orderkey)
		FROM customer LEFT OUTER JOIN orders
		  ON c_custkey = o_custkey
		 AND o_comment NOT LIKE '%special%requests%'
		GROUP BY c_custkey`,

	// Q13 in TPC-H's exact published nested form: the per-customer
	// counts inside a derived table, the distribution of counts
	// outside. Same resource profile as Q13 plus a small outer
	// aggregation.
	"Q13FULL": `SELECT c_count, count(*) AS custdist
		FROM (SELECT c_custkey, count(o_orderkey) AS c_count
		      FROM customer LEFT OUTER JOIN orders
		        ON c_custkey = o_custkey
		       AND o_comment NOT LIKE '%special%requests%'
		      GROUP BY c_custkey) c_orders
		GROUP BY c_count
		ORDER BY custdist DESC, c_count DESC`,

	// A point-lookup OLTP-ish query (index heavy).
	"QPOINT": `SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 4242`,
}

// Lookup returns the named query and whether the set has it.
func Lookup(name string) (string, bool) {
	q, ok := catalog[name]
	return q, ok
}

// Query returns one named query or panics; experiment code uses known
// names.
func Query(name string) string {
	q, ok := Lookup(name)
	if !ok {
		panic("workload: unknown query " + name)
	}
	return q
}

// ParseRepeat parses a QUERYxN workload reference such as "Q4x3" into a
// named query (case-insensitive) and a repeat count of at least one; a
// bare QUERY repeats once. No query name contains an x, so the count
// starts after the first one.
func ParseRepeat(s string) (query string, n int, err error) {
	query, count, found := strings.Cut(strings.ToUpper(strings.TrimSpace(s)), "X")
	n = 1
	if found {
		if n, err = strconv.Atoi(count); err != nil || n < 1 {
			return "", 0, fmt.Errorf("workload %q: bad repeat count %q", s, count)
		}
	}
	if _, ok := catalog[query]; !ok {
		var names []string
		for name := range catalog {
			names = append(names, name)
		}
		slices.Sort(names)
		return "", 0, fmt.Errorf("workload %q: unknown query %q (have %s)", s, query, strings.Join(names, ", "))
	}
	return query, n, nil
}

// Workload is a named sequence of SQL statements, the W_i of the paper's
// problem formulation.
type Workload struct {
	Name       string
	Statements []string
}

// Repeat builds a workload of n copies of one query, as the paper does
// ("3 copies of Q4", "9 copies of Q13") to amortize startup effects.
func Repeat(name, query string, n int) Workload {
	stmts := make([]string, n)
	for i := range stmts {
		stmts[i] = query
	}
	return Workload{Name: name, Statements: stmts}
}

// BuildWriteBase creates and loads the small bank-style table the write
// workloads target: `account (a_id INT, a_bal FLOAT)` with an index on
// a_id, rows preloaded (frozen bulk load), analyzed, and checkpointed. It
// is deliberately tiny — the write workloads it serves are commit-bound,
// not scan-bound.
func BuildWriteBase(s *engine.Session, rows int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	if _, err := s.Exec(`CREATE TABLE account (a_id INT, a_bal FLOAT)`); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	acct, err := s.DB.Catalog.Table("account")
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		tup := storage.Tuple{
			types.NewInt(int64(i + 1)),
			types.NewFloat(float64(rng.Intn(100000)) / 100),
		}
		if err := s.InsertTuple(acct, tup); err != nil {
			return err
		}
	}
	if _, err := s.Exec("CREATE INDEX account_pk ON account (a_id)"); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if _, err := s.Exec("ANALYZE"); err != nil {
		return err
	}
	return s.Checkpoint()
}

// InsertHeavy builds a write-bound workload: n single-row INSERTs into
// account, each an autocommit transaction ending in a WAL flush. Keys
// start above the preloaded range so index maintenance stays rightmost.
func InsertHeavy(name string, baseRows, n int) Workload {
	stmts := make([]string, n)
	for i := range stmts {
		k := baseRows + i + 1
		stmts[i] = fmt.Sprintf("INSERT INTO account VALUES (%d, %d.0)", k, k%997)
	}
	return Workload{Name: name, Statements: stmts}
}

// UpdateHeavy builds an update-bound workload: n single-row balance
// updates against the preloaded account rows, each an autocommit
// transaction (delete + re-insert through the MVCC write path, one WAL
// flush per statement).
func UpdateHeavy(name string, baseRows, n int, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	stmts := make([]string, n)
	for i := range stmts {
		k := rng.Intn(baseRows) + 1
		stmts[i] = fmt.Sprintf("UPDATE account SET a_bal = a_bal + 1.0 WHERE a_id = %d", k)
	}
	return Workload{Name: name, Statements: stmts}
}
