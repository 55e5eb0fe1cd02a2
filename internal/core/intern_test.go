package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dbvirt/internal/engine"
	"dbvirt/internal/memo"
	"dbvirt/internal/storage"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// TestInternProperty drives Intern with a seeded stream over two
// databases, whose tables hold one spec a generation, and three statement
// lists. Every spec carries
// the content it was asked for; a spec is shared only by equal content;
// equal content asked twice in a row is the same pointer; content that
// was pushed out comes back as a new pointer; and every pointer of one
// content prices bit-identically to the cold model.
func TestInternProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a workload database")
	}
	db, _ := cacheDB(t)
	other := engine.NewDatabase()
	lists := [][]string{
		{workload.Query("Q4")},
		{workload.Query("Q4"), workload.Query("Q4")},
		{workload.Query("Q6"), workload.Query("Q1")},
	}
	for _, d := range []*engine.Database{db, other} {
		d.Specs.Store(&interner{gen: memo.Gen[uint64, *WorkloadSpec]{Cap: 1}})
	}
	model, cold := &WhatIfModel{Grid: flipGrid(t)}, &WhatIfModel{Grid: flipGrid(t), NoPrepare: true}
	shares := vm.Shares{CPU: 0.4, Memory: 0.7, IO: 0.3}

	type content struct {
		db   *engine.Database
		list int
	}
	owner := map[*WorkloadSpec]content{}
	want := map[int]float64{} // cold cost per list on db
	var prev *WorkloadSpec
	var prevC content
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 300; step++ {
		c := content{db, rng.Intn(len(lists))}
		if rng.Intn(4) == 0 {
			c.db = other
		}
		// A fresh copy each time: the key is the content, not the slice.
		sp := Intern("w", c.db, slices.Clone(lists[c.list]))
		if sp.DB != c.db || !slices.Equal(sp.Statements, lists[c.list]) {
			t.Fatalf("step %d: spec carries other content than asked", step)
		}
		if o, ok := owner[sp]; ok && o != c {
			t.Fatalf("step %d: contents %v and %v share one spec", step, o, c)
		}
		owner[sp] = c
		if prev != nil && prevC == c && sp != prev {
			t.Fatalf("step %d: resident content came back as a new pointer", step)
		}
		prev, prevC = sp, c
		if c.db != db {
			continue
		}
		got, err := model.Cost(context.Background(), sp, shares)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := want[c.list]; !ok {
			if want[c.list], err = cold.Cost(context.Background(), sp, shares); err != nil {
				t.Fatal(err)
			}
		}
		if got != want[c.list] {
			t.Fatalf("step %d: list %d prices %v, cold model %v", step, c.list, got, want[c.list])
		}
	}

	// Content pushed out by two others returns as a new pointer.
	a := Intern("a", db, lists[0])
	Intern("b", db, lists[1])
	Intern("c", db, lists[2])
	if again := Intern("a", db, lists[0]); again == a || again.Name != "a" {
		t.Fatal("evicted content kept its pointer at capacity 1")
	}
	// A collision — another list resident under this list's hash — gets
	// a spec of its own and leaves the resident one in place.
	resident := Intern("r", db, lists[1])
	in := db.Specs.Load().(*interner)
	in.gen.Put(StatementsHash(lists[2]), resident)
	if sp := Intern("x", db, lists[2]); sp == resident || !slices.Equal(sp.Statements, lists[2]) {
		t.Fatal("a colliding list was served the resident spec")
	}
	if sp, _ := in.gen.Get(StatementsHash(lists[2])); sp != resident {
		t.Fatal("a collision replaced the resident spec")
	}
}

// TestInternFirstNameIsTheLabel: the process interner returns one spec
// per content whatever the caller calls it, and views keep its identity.
func TestInternFirstNameIsTheLabel(t *testing.T) {
	db := engine.NewDatabase()
	stmts := []string{"SELECT 1 FROM t"}
	a := Intern("first", db, stmts)
	b := Intern("second", db, []string{"SELECT 1 FROM t"})
	if a != b || b.Name != "first" {
		t.Fatalf("equal content interned to %p (%s) and %p (%s)", a, a.Name, b, b.Name)
	}
	if v := b.WithObjective(2, 1); v.Base() != a {
		t.Fatal("a view lost its interned base")
	}
	if Intern("first", engine.NewDatabase(), stmts) == a {
		t.Fatal("another database shared the spec")
	}
}

// TestInternConcurrent: callers racing on a fresh database — its table
// created by the first of them — all get the one spec.
func TestInternConcurrent(t *testing.T) {
	db := engine.NewDatabase()
	got := make([]*WorkloadSpec, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Intern("w", db, []string{"SELECT 1 FROM t", "SELECT 1 FROM t"})
		}(i)
	}
	wg.Wait()
	for _, sp := range got {
		if sp != got[0] {
			t.Fatal("concurrent callers got distinct specs for one content")
		}
	}
}

// TestInternedSpecsDieWithTheirDatabase: the table lives on the
// database, so a database and its interned specs are collected once
// nothing else holds them — a process that builds a new environment does
// not keep the old one.
func TestInternedSpecsDieWithTheirDatabase(t *testing.T) {
	collected := make(chan struct{})
	internOnFreshDB(collected)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a database nobody holds was kept alive by its interned specs")
}

// internOnFreshDB interns a spec on a database it then drops; collected
// closes when the database's disk, which only the database holds, is
// collected.
//
//go:noinline
func internOnFreshDB(collected chan struct{}) {
	db := engine.NewDatabase()
	runtime.SetFinalizer(db.Disk, func(*storage.DiskManager) { close(collected) })
	Intern("gone", db, []string{"SELECT 1 FROM t"})
}
