package workload

// Rows returns the approximate total row count.
func (s Scale) Rows() int { return s.Customers + s.Orders + s.Orders*s.LinesPerOrder }
