// Package catalog holds the engine's metadata: table schemas, heap and
// index handles, and the per-column statistics (histograms, distinct
// counts, most-common values, index correlation) that the query optimizer
// uses for cardinality estimation, in the style of PostgreSQL's pg_statistic.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dbvirt/internal/index"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind types.Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Table is a base relation: schema plus storage handles and statistics.
type Table struct {
	Name    string
	Schema  Schema
	Heap    *storage.HeapFile
	Indexes []*Index
	Stats   *TableStats // nil until Analyze
	// Blocks caches the columnar (zone-mapped) form of heap pages for
	// vectorized scans. Cleared on every catalog invalidation. May be nil
	// on hand-built tables; scans then decode pages without caching.
	Blocks *storage.BlockCache
}

// IndexOn returns the index whose key is the given column, or nil.
func (t *Table) IndexOn(col int) *Index {
	for _, ix := range t.Indexes {
		if ix.Col == col {
			return ix
		}
	}
	return nil
}

// Index is a secondary B+-tree index over one int64-sortable column.
type Index struct {
	Name  string
	Col   int // column position in the table schema
	Tree  *index.BTree
	Stats *IndexStats // nil until Analyze
}

// TableStats are optimizer statistics for a table.
type TableStats struct {
	NumRows       int64
	NumPages      int64
	AvgTupleBytes float64
	Cols          []ColumnStats
}

// ColumnStats are optimizer statistics for one column. Values are mapped
// to the real line with Value.ToSortKey, mirroring PostgreSQL's
// convert_to_scalar.
type ColumnStats struct {
	NullFrac  float64
	NDistinct float64
	HasRange  bool
	Min, Max  float64
	// Histogram holds B+1 equi-depth bucket bounds over non-MCV values.
	Histogram []float64
	// MCVs are the most common values with their frequency (fraction of
	// all rows), sorted by descending frequency.
	MCVs []MCV
	// AvgWidth is the average encoded width of the column in bytes, used
	// for LIKE cost estimation on strings.
	AvgWidth float64
}

// MCV is one most-common-value entry.
type MCV struct {
	Key  float64
	Freq float64
}

// MCVFreqTotal returns the total frequency captured by the MCV list.
func (c ColumnStats) MCVFreqTotal() float64 {
	var s float64
	for _, m := range c.MCVs {
		s += m.Freq
	}
	return s
}

// IndexStats are optimizer statistics for an index.
type IndexStats struct {
	NumPages    int64
	Height      int
	NumEntries  int64
	Correlation float64 // [-1, 1]: physical order vs key order
}

// Catalog is the set of tables in one database.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version atomic.Uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Version is a monotonic counter bumped whenever anything binding or
// planning reads changes: table and index DDL, restored tables and
// refreshed statistics. The optimizer reads statistics and schema, never
// rows, so data modifications leave it alone. Callers caching bound
// queries or plans key them by this version and rebuild on mismatch.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Invalidate bumps the catalog version and drops cached columnar blocks.
// DDL entry points bump the version internally; the engine calls
// Invalidate after ANALYZE and recovery.
func (c *Catalog) Invalidate() {
	c.version.Add(1)
	c.ClearBlocks()
}

// ClearBlocks drops cached columnar blocks, whose contents may be stale
// after data changes, and leaves the version alone. The engine calls it
// after DML, COMMIT and ROLLBACK.
func (c *Catalog) ClearBlocks() {
	c.mu.RLock()
	for _, t := range c.tables {
		t.Blocks.Clear()
	}
	c.mu.RUnlock()
}

// CreateTable registers a new table backed by a fresh heap file.
func (c *Catalog) CreateTable(disk *storage.DiskManager, name string, schema Schema) (*Table, error) {
	if len(schema.Cols) == 0 {
		return nil, fmt.Errorf("catalog: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, col := range schema.Cols {
		lower := strings.ToLower(col.Name)
		if seen[lower] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[lower] = true
	}
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{
		Name:   name,
		Schema: schema,
		Heap:   storage.NewHeapFile(disk.CreateFile()),
		Blocks: storage.NewBlockCache(),
	}
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// RestoreTable registers a table whose heap file already exists on disk,
// used when loading a database image.
func (c *Catalog) RestoreTable(name string, schema Schema, heapFID storage.FileID) (*Table, error) {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema, Heap: storage.NewHeapFile(heapFID), Blocks: storage.NewBlockCache()}
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// Table returns the named table, or an error.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateIndex builds a B+-tree index over the given column of the table by
// scanning the heap. The column must have an int64-sortable kind (INT or
// DATE).
func (c *Catalog) CreateIndex(disk *storage.DiskManager, pg storage.Pager, name, tableName, colName string) (*Index, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	col := t.Schema.ColIndex(colName)
	if col < 0 {
		return nil, fmt.Errorf("catalog: table %q has no column %q", tableName, colName)
	}
	kind := t.Schema.Cols[col].Kind
	if kind != types.KindInt && kind != types.KindDate {
		return nil, fmt.Errorf("catalog: cannot index %s column %q (only INT and DATE keys)", kind, colName)
	}
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, name) {
			return nil, fmt.Errorf("catalog: index %q already exists", name)
		}
	}
	tree, err := index.Create(pg, disk.CreateFile())
	if err != nil {
		return nil, err
	}
	err = t.Heap.Scan(pg, func(tid storage.TID, tup storage.Tuple) error {
		v := tup[col]
		if v.IsNull() {
			return nil // NULLs are not indexed
		}
		return tree.Insert(pg, v.I, tid)
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: building index %q: %w", name, err)
	}
	ix := &Index{Name: name, Col: col, Tree: tree}
	c.mu.Lock()
	t.Indexes = append(t.Indexes, ix)
	c.mu.Unlock()
	c.version.Add(1)
	return ix, nil
}
