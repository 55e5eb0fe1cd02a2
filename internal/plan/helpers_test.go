package plan

// NullSink discards CPU accounting.
type NullSink struct{}

// AccountCPU implements CPUSink.
func (NullSink) AccountCPU(float64) {}
