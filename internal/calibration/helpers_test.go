package calibration

import "io"

// SaveJSON writes the complete grid in the grid-file format LoadGrid
// reads. It writes no config signature, so its output depends only on the
// lattice, not on whether the grid was measured, loaded or built.
func (g *Grid) SaveJSON(w io.Writer) error {
	b, err := g.marshal("", nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
