package experiments

import (
	"testing"

	"dbvirt/internal/core"
	"dbvirt/internal/vm"
	"dbvirt/internal/workload"
)

// TestFleetTenantsShareSpecs: two FleetTenants calls resolve every
// workload shape to one interned spec, so tenants from separate calls —
// a fleet and its later arrivals — share cost identity.
func TestFleetTenantsShareSpecs(t *testing.T) {
	env := workload.NewEnv(workload.TinyScale(), vm.DefaultMachineConfig())
	a, err := FleetTenants(env, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetTenants(env, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*core.WorkloadSpec{}
	for i := range a {
		if a[i].Spec != b[i].Spec {
			t.Fatalf("tenant %s: the two calls returned distinct specs", a[i].Name)
		}
		if sp, ok := byName[a[i].Spec.Name]; ok && sp != a[i].Spec {
			t.Fatalf("shape %s resolved to two specs in one call", sp.Name)
		}
		byName[a[i].Spec.Name] = a[i].Spec
	}
}
