package server

import "dbvirt/internal/placement"

// PlacementResponse reports one placement pass. TotalCost is only ever
// written after Placement.Verify has checked every machine against a
// solve re-evaluated through the cost model — Verified records that fact.
// The type is the documented schema and what the tests decode into; the
// handlers write it with appendPlacementResponse.
//
// POST /v1/placement and GET /v1/placement answer with the full
// placement. An events response is a delta against the placement before
// its pass: Classes carry no Members, and Machines lists only the
// machines whose encoding changed; a client replaces its machines by ID,
// truncates the list to Stats.Machines and rebuilds each class's members,
// in name order, from the seats. Version counts the passes applied to the
// current placement since its POST /v1/placement (which is version 0), so
// a client whose last body is not Version-1 resyncs with GET.
type PlacementResponse struct {
	TotalCost float64               `json:"total_cost"`
	Order     int                   `json:"order"`
	Verified  bool                  `json:"verified"`
	Events    int                   `json:"events,omitempty"` // events applied (events endpoint only)
	Version   int                   `json:"version,omitempty"`
	Stats     placement.SolveStats  `json:"stats"`
	Classes   []placement.ClassInfo `json:"classes"`
	Machines  []placement.Machine   `json:"machines"`
}
