package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"dbvirt/internal/vm"
)

// TestControllerConcurrentReconfigure is the regression test for the
// unguarded-Reconfigure bug: the autotune loop's periodic actuation and
// the HTTP trigger endpoint can call Reconfigure on the same controller
// concurrently. Before the mutex, concurrent calls raced on the History
// append (a -race failure) and could interleave the lower-then-raise
// share transition. Now every call must complete, every step must be
// recorded, and the final shares must be the solver's answer.
func TestControllerConcurrentReconfigure(t *testing.T) {
	machine := vm.MustMachine(vm.DefaultMachineConfig())
	specs := fakeSpecs("hungry", "flat")
	equal := EqualAllocation(2)
	var vms []*vm.VM
	for i, s := range specs {
		v, err := machine.NewVM(s.Name, equal[i])
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, v)
	}
	inner := cpuHungryModel()
	slow := &funcModel{name: "slow", f: func(w *WorkloadSpec, s vm.Shares) float64 {
		time.Sleep(200 * time.Microsecond) // widen the race window
		c, _ := inner.Cost(context.Background(), w, s)
		return c
	}}
	ctrl := &Controller{Model: slow}
	p := cpuProblem(specs, 0.25)
	p.Parallelism = 1

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ctrl.Reconfigure(context.Background(), p, vms)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if len(ctrl.History) != callers {
		t.Fatalf("history has %d steps, want %d (lost updates)", len(ctrl.History), callers)
	}
	for i, step := range ctrl.History {
		if !step.Applied {
			t.Fatalf("history step %d not applied", i)
		}
	}
	// The hungry workload must hold the solver's 0.75 CPU share, and the
	// machine must never have been over-committed (SetShares would have
	// errored above if a racing transition tried).
	if got := vms[0].Shares().CPU; got != 0.75 {
		t.Fatalf("hungry CPU share = %g, want 0.75", got)
	}
	if got := vms[1].Shares().CPU; got != 0.25 {
		t.Fatalf("flat CPU share = %g, want 0.25", got)
	}
}
