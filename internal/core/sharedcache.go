package core

// SharedCostModel forwards every call to the model it embeds and keeps
// nothing.
//
// Deprecated: hand the model to the solver as it is. The what-if model's
// cost atoms price each statement once per P(R), below any request-level
// memo. The forwarder stays until bench/ stops naming it (ROADMAP 1(f),
// the next harness change).
type SharedCostModel struct{ CostModel }

// NewSharedCostModel returns inner behind the forwarder; key is ignored.
//
// Deprecated: see SharedCostModel.
func NewSharedCostModel(inner CostModel, key func(*WorkloadSpec) string) *SharedCostModel {
	return &SharedCostModel{inner}
}

// Len is 0: the forwarder holds no entries.
func (m *SharedCostModel) Len() int { return 0 }
