// Package linalg provides the small dense linear-algebra routines needed by
// the optimizer-calibration process: solving square systems by Gaussian
// elimination with partial pivoting, and over-determined systems by least
// squares via the normal equations.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular or ill-conditioned")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all have equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty matrix")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: len %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Solve solves the square system a*x = b using Gaussian elimination with
// partial pivoting. a and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), n)
	}
	// Augmented working copy.
	m := a.Clone()
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below the diagonal.
		pivot := col
		maxAbs := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// LeastSquares solves min_x ||a*x - b||_2 for an over-determined system
// (Rows >= Cols) via the normal equations aᵀa x = aᵀb. The calibration
// systems are tiny and well-scaled, so the normal equations are adequate.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: rhs length %d != %d rows", len(b), a.Rows)
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: under-determined system %dx%d", a.Rows, a.Cols)
	}
	n := a.Cols
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * a.At(r, j)
			}
			ata.Set(i, j, s)
			ata.Set(j, i, s)
		}
		var s float64
		for r := 0; r < a.Rows; r++ {
			s += a.At(r, i) * b[r]
		}
		atb[i] = s
	}
	return Solve(ata, atb)
}

// Residual returns the vector a*x - b.
func Residual(a *Matrix, x, b []float64) []float64 {
	y := a.MulVec(x)
	for i := range y {
		y[i] -= b[i]
	}
	return y
}
