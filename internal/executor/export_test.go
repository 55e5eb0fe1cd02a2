package executor

import "dbvirt/internal/optimizer"

// RunReference executes a plan on the tuple-at-a-time reference executor
// (reference_test.go). It returns the same kind of Result as Run, and
// charges the VM and the buffer pool what Run must charge.
func RunReference(p *optimizer.Plan, ctx *Context) (*Result, error) {
	it, err := build(p.Root, ctx)
	if err != nil {
		return nil, err
	}
	return newResult(p, &rowBatches{in: it}), nil
}
