package server

// The autotune surface: vdtuned's closed-loop mode. When Config.Autotune
// is set, New builds a managed deployment — one VM per configured
// workload on a machine shaped like the environment's — and an
// autotune.Loop that watches those workloads' telemetry tenants (the
// same sketches every what-if request feeds), re-solves through the
// server's cost model, and reconfigures the VMs. The HTTP surface
// is deliberately small: status (the decision log), enable/disable, and
// a synchronous trigger that runs one tick and returns its decision —
// the deterministic drive shaft of the e2e soak test.

import (
	"fmt"
	"net/http"
	"time"

	"dbvirt/internal/autotune"
	"dbvirt/internal/core"
	"dbvirt/internal/vm"
)

// AutotuneOptions configures the control loop; zero-valued tuning fields
// inherit the autotune package defaults.
type AutotuneOptions struct {
	// Workloads are the managed tenants, positionally matched to the VMs
	// of the managed deployment. Telemetry tenant identity follows
	// tenantName: an explicit Name, else the canonical QUERYxN form.
	Workloads []WorkloadRef
	// Interval is the background tick period; 0 means no background
	// ticker (ticks only via POST /v1/autotune/trigger).
	Interval time.Duration
	// Step is the solver grid quantum (default 0.25).
	Step float64
	// ResolveEvery re-solves every Nth tick absent a drift alarm.
	ResolveEvery int
	// Decision-layer knobs; see autotune.DeciderConfig.
	MinGain       float64
	ConfirmTicks  int
	CooldownTicks int
	MaxStepDelta  float64
	ChangeCost    float64
	// Enabled starts the loop actuating; disabled loops tick but skip.
	Enabled bool
}

func (o *AutotuneOptions) validate() error {
	if len(o.Workloads) < 2 {
		return fmt.Errorf("autotune: need at least 2 workloads, got %d", len(o.Workloads))
	}
	if len(o.Workloads) > maxWorkloads {
		return fmt.Errorf("autotune: too many workloads (%d > %d)", len(o.Workloads), maxWorkloads)
	}
	seen := make(map[string]bool, len(o.Workloads))
	for i, ref := range o.Workloads {
		if err := validateRef(ref); err != nil {
			return fmt.Errorf("autotune: workload %d: %w", i, err)
		}
		name := tenantName(ref)
		if seen[name] {
			return fmt.Errorf("autotune: duplicate tenant %q (two VMs cannot share one telemetry stream)", name)
		}
		seen[name] = true
	}
	return nil
}

// initAutotune assembles the managed deployment and the loop; called
// from New when Config.Autotune is set.
func (s *Server) initAutotune(opts *AutotuneOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	specs, err := s.resolve(opts.Workloads)
	if err != nil {
		return fmt.Errorf("autotune: resolving workloads: %w", err)
	}
	machine, err := vm.NewMachine(s.cfg.Env.Machine)
	if err != nil {
		return fmt.Errorf("autotune: %w", err)
	}
	equal := core.EqualAllocation(len(specs))
	vms := make([]*vm.VM, len(specs))
	tenants := make([]autotune.ManagedTenant, len(specs))
	for i, ref := range opts.Workloads {
		name := tenantName(ref)
		if vms[i], err = machine.NewVM(name, equal[i]); err != nil {
			return fmt.Errorf("autotune: %w", err)
		}
		tenants[i] = autotune.ManagedTenant{
			Name:       name,
			DB:         specs[i].DB,
			Weight:     ref.Weight,
			SLOSeconds: ref.SLOSeconds,
			// The configured definition describes the tenant until its
			// sketch has traffic — and its normalized statements are the
			// same keys recordWhatIf streams, so the handoff is seamless.
			Fallback: specs[i].NormalizedStatements(),
		}
	}
	loop, err := autotune.NewLoop(autotune.Config{
		Hub:     s.cfg.Telemetry,
		Model:   s.cfg.Model,
		VMs:     vms,
		Tenants: tenants,
		Step:    opts.Step,
		Decider: autotune.DeciderConfig{
			MinGain:       opts.MinGain,
			ConfirmTicks:  opts.ConfirmTicks,
			CooldownTicks: int64(opts.CooldownTicks),
			MaxStepDelta:  opts.MaxStepDelta,
			ChangeCost:    opts.ChangeCost,
		},
		ResolveEvery: opts.ResolveEvery,
		Parallelism:  s.cfg.Parallelism,
		StartEnabled: opts.Enabled,
	})
	if err != nil {
		return err
	}
	s.tuner = loop
	return nil
}

// AutotuneToggleResponse answers enable/disable.
type AutotuneToggleResponse struct {
	Enabled bool `json:"enabled"`
}

func (s *Server) handleAutotuneStatus(w http.ResponseWriter, _ *http.Request) {
	if s.tuner == nil {
		writeError(w, http.StatusNotFound, "autotune not configured (start vdtuned with -autotune)")
		return
	}
	writeJSON(w, http.StatusOK, s.tuner.Status())
}

func (s *Server) handleAutotuneEnable(w http.ResponseWriter, _ *http.Request) {
	if s.tuner == nil {
		writeError(w, http.StatusNotFound, "autotune not configured (start vdtuned with -autotune)")
		return
	}
	s.tuner.Enable()
	writeJSON(w, http.StatusOK, AutotuneToggleResponse{Enabled: true})
}

func (s *Server) handleAutotuneDisable(w http.ResponseWriter, _ *http.Request) {
	if s.tuner == nil {
		writeError(w, http.StatusNotFound, "autotune not configured (start vdtuned with -autotune)")
		return
	}
	s.tuner.Disable()
	writeJSON(w, http.StatusOK, AutotuneToggleResponse{Enabled: false})
}

// handleAutotuneTrigger runs one control-loop tick synchronously and
// returns its decision. The decision layer still applies — a trigger is
// a forced evaluation, not a forced actuation — and a tick whose resolve
// failed reports action "error" in the decision rather than an HTTP
// error, because the loop absorbed it.
func (s *Server) handleAutotuneTrigger(w http.ResponseWriter, r *http.Request) {
	if s.tuner == nil {
		writeError(w, http.StatusNotFound, "autotune not configured (start vdtuned with -autotune)")
		return
	}
	ctx, cancel := s.requestCtx(r, 0)
	defer cancel()
	writeJSON(w, http.StatusOK, s.tuner.Trigger(ctx))
}
