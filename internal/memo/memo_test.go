package memo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dbvirt/internal/obs"
)

// rig is one Memo under test with its counters and a computation that
// counts its runs and can be held at a gate.
type rig struct {
	t                *testing.T
	m                *Memo[int, int]
	hit, join, evict obs.Counter
	mu               sync.Mutex
	runs             map[int]int
}

func newRig(t *testing.T, capacity int, hash func(int) uint64) *rig {
	r := &rig{t: t, runs: map[int]int{}}
	r.m = New[int, int](capacity, hash, Counters{Hit: &r.hit, Join: &r.join})
	for i := range r.m.shards {
		r.m.shards[i].done.Evict = &r.evict // turnover, seen through the generations
	}
	return r
}

// square is the pure function every test memoizes.
func (r *rig) square(k int) func() (int, error) {
	return func() (int, error) {
		r.mu.Lock()
		r.runs[k]++
		r.mu.Unlock()
		return k * k, nil
	}
}

func (r *rig) ran(k int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs[k]
}

// do asserts one Do's value and whether it led.
func (r *rig) do(k int, wantLed bool) {
	r.t.Helper()
	v, led, err := r.m.Do(context.Background(), k, r.square(k))
	if err != nil || v != k*k || led != wantLed {
		r.t.Fatalf("Do(%d) = %d, led %v, err %v; want %d, led %v", k, v, led, err, k*k, wantLed)
	}
}

// held starts a leader on key k whose computation blocks until release is
// called, then ends as end says; it returns once the leader is in flight.
func (r *rig) held(k int, end func() (int, error)) (release func(), leader chan error) {
	gate, entered := make(chan struct{}), make(chan struct{})
	leader = make(chan error, 1) // the leader's one result
	go func() {
		_, _, err := r.m.Do(context.Background(), k, func() (int, error) {
			close(entered)
			<-gate
			return end()
		})
		leader <- err
	}()
	<-entered
	return func() { close(gate) }, leader
}

// joiners calls Do on k from n goroutines and returns their errors
// once all of them have joined the computation in flight.
func (r *rig) joiners(ctx context.Context, k, n int) chan error {
	errs := make(chan error, n) // one result per joiner
	before := r.join.Value()
	for i := 0; i < n; i++ {
		go func() {
			_, led, err := r.m.Do(ctx, k, func() (int, error) {
				r.t.Error("a joiner computed")
				return 0, nil
			})
			if led {
				r.t.Error("a joiner led")
			}
			errs <- err
		}()
	}
	for r.join.Value() < before+int64(n) {
		time.Sleep(100 * time.Microsecond)
	}
	return errs
}

func TestMemoContract(t *testing.T) {
	mod := func(k int) uint64 { return uint64(k) }
	boom := errors.New("boom")
	cases := []struct {
		name     string
		capacity int
		hash     func(int) uint64
		run      func(t *testing.T, r *rig)
	}{
		{"miss then hit", 0, nil, func(t *testing.T, r *rig) {
			r.do(3, true)
			r.do(3, false)
			r.do(3, false)
			if r.ran(3) != 1 || r.hit.Value() != 2 || r.m.Len() != 1 {
				t.Fatalf("runs %d, hits %d, Len %d; want 1, 2, 1", r.ran(3), r.hit.Value(), r.m.Len())
			}
		}},
		{"put is a completed entry", 0, mod, func(t *testing.T, r *rig) {
			r.m.Put(5, 25)
			r.do(5, false)
			if r.ran(5) != 0 || r.m.Len() != 1 {
				t.Fatalf("runs %d, Len %d; want 0, 1", r.ran(5), r.m.Len())
			}
		}},
		{"concurrent callers join the leader", 0, mod, func(t *testing.T, r *rig) {
			release, leader := r.held(7, r.square(7))
			errs := r.joiners(context.Background(), 7, 8)
			release()
			for i := 0; i < 8; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := <-leader; err != nil || r.ran(7) != 1 || r.join.Value() != 8 || r.hit.Value() != 0 {
				t.Fatalf("err %v, runs %d, joins %d, hits %d; want nil, 1, 8, 0", err, r.ran(7), r.join.Value(), r.hit.Value())
			}
			r.do(7, false)
		}},
		{"a cancelled waiter leaves, the computation continues", 0, nil, func(t *testing.T, r *rig) {
			release, leader := r.held(2, r.square(2))
			ctx, cancel := context.WithCancel(context.Background())
			errs := r.joiners(ctx, 2, 1)
			cancel()
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter: err %v", err)
			}
			release()
			if err := <-leader; err != nil {
				t.Fatal(err)
			}
			r.do(2, false)
		}},
		{"an error is not retained", 1, nil, func(t *testing.T, r *rig) {
			_, led, err := r.m.Do(context.Background(), 4, func() (int, error) { return 0, boom })
			if !led || !errors.Is(err, boom) || r.m.Len() != 0 {
				t.Fatalf("led %v, err %v, Len %d", led, err, r.m.Len())
			}
			r.do(4, true)
		}},
		{"a panicking leader releases its joiners", 0, mod, func(t *testing.T, r *rig) {
			release, leader := r.held(6, func() (int, error) { panic("kaboom") })
			errs := r.joiners(context.Background(), 6, 4)
			release()
			for i := 0; i < 5; i++ {
				var err error
				select {
				case err = <-errs:
				case err = <-leader:
				case <-time.After(10 * time.Second):
					t.Fatal("a caller is still blocked on the panicked key")
				}
				if err == nil || !strings.Contains(err.Error(), "panicked: kaboom") {
					t.Fatalf("err %v; want the panic as an error", err)
				}
			}
			r.do(6, true) // the key is free and computed again
		}},
		{"flight forgets the key", 4, nil, func(t *testing.T, r *rig) {
			for i := 0; i < 2; i++ {
				if v, led, err := r.m.Flight(context.Background(), 3, r.square(3)); v != 9 || !led || err != nil {
					t.Fatalf("Flight = %d, led %v, err %v", v, led, err)
				}
			}
			if r.ran(3) != 2 || r.m.Len() != 0 {
				t.Fatalf("runs %d, Len %d; want 2, 0", r.ran(3), r.m.Len())
			}
		}},
		{"a full generation retires the old one", 2, nil, func(t *testing.T, r *rig) {
			for k := 1; k <= 4; k++ { // cur {3,4}, old {1,2}
				r.do(k, true)
			}
			if r.m.Len() != 4 || r.evict.Value() != 0 {
				t.Fatalf("Len %d, evicted %d; want 4, 0", r.m.Len(), r.evict.Value())
			}
			r.do(1, false) // promoted: cur {1}, old {3,4}; 2 is gone
			if r.m.Len() != 3 || r.evict.Value() != 1 {
				t.Fatalf("after a promotion: Len %d, evicted %d; want 3, 1", r.m.Len(), r.evict.Value())
			}
			r.do(2, true)  // evicted, so computed again, to the same value
			r.do(3, false) // old-generation hit: cur {3}, old {1,2}; 4 is gone
			r.do(1, false)
			if r.ran(1) != 1 || r.ran(2) != 2 || r.evict.Value() != 2 {
				t.Fatalf("runs of 1, 2: %d, %d, evicted %d; want 1, 2, 2", r.ran(1), r.ran(2), r.evict.Value())
			}
		}},
		{"len stays within two generations", 32, mod, func(t *testing.T, r *rig) {
			for k := 0; k < 1000; k++ {
				r.do(k, true)
			}
			if n := r.m.Len(); n > 64 || n < 32 {
				t.Fatalf("Len %d after 1000 keys at capacity 32", n)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, newRig(t, c.capacity, c.hash)) })
	}
}

// TestMemoConcurrent hammers a capacity-bounded Memo from many goroutines
// with overlapping keys: every caller sees the pure function's value
// whether it hit, joined, led or recomputed after an eviction.
func TestMemoConcurrent(t *testing.T) {
	r := newRig(t, 16, func(k int) uint64 { return uint64(k) })
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 97
				if v, _, err := r.m.Do(context.Background(), k, r.square(k)); err != nil || v != k*k {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := r.m.Len(); n > 32 {
		t.Fatalf("Len %d exceeds two generations of 16", n)
	}
}

// TestMemoHitAllocatesNothing: the per-solve cost cache hits completed
// entries in the solvers' inner loop, through a closure over its arguments.
func TestMemoHitAllocatesNothing(t *testing.T) {
	type key struct {
		wi  int
		key [3]int64
	}
	m := New[key, float64](0, func(k key) uint64 { return uint64(k.wi) }, Counters{Hit: new(obs.Counter)})
	k := key{wi: 3, key: [3]int64{1, 2, 3}}
	m.Put(k, 1.5)
	ctx, scale := context.Background(), 2.0
	if n := testing.AllocsPerRun(100, func() {
		v, led, err := m.Do(ctx, k, func() (float64, error) { return scale * float64(k.wi), ctx.Err() })
		if v != 1.5 || led || err != nil {
			t.Fatal("lost the entry")
		}
	}); n != 0 {
		t.Fatalf("a completed-entry hit allocates %v times, want 0", n)
	}
}
