package types

import (
	"math/rand"
	"testing"
)

// TestVecBuilderMatchesBoxed drives Reset, Append, AppendNulls and
// AppendRows with random values and sources of every shape, and requires
// the vector to read back, row for row, as the plain list of values that
// was appended, whatever mix of typed, masked and boxed forms it went
// through.
func TestVecBuilderMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kinds := []Kind{KindInt, KindFloat, KindString, KindDate, KindBool}
	randVal := func(k Kind) Value {
		switch k {
		case KindFloat:
			return NewFloat(rng.Float64())
		case KindString:
			return NewString(string(rune('a' + rng.Intn(26))))
		default:
			return Value{Kind: k, I: int64(rng.Intn(100))}
		}
	}
	// A source vector of n rows: typed, typed under a mask, boxed, or all
	// NULL, with its rows as values alongside.
	randSrc := func(n int) (Vec, []Value) {
		k := kinds[rng.Intn(len(kinds))]
		shape := rng.Intn(4)
		var src Vec
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = randVal(k)
			if shape == 3 || (shape != 0 && rng.Intn(4) == 0) {
				vals[i] = Null
			}
			if shape == 2 {
				src.Any = append(src.Any, vals[i])
			} else {
				src.Append(vals[i])
			}
		}
		return src, vals
	}
	var v Vec
	for round := 0; round < 400; round++ {
		v.Reset()
		var want []Value
		uniform := kinds[rng.Intn(len(kinds))]
		for step := rng.Intn(8); step > 0; step-- {
			switch rng.Intn(4) {
			case 0:
				val := randVal(uniform)
				if rng.Intn(10) == 0 {
					val = randVal(kinds[rng.Intn(len(kinds))])
				}
				v.Append(val)
				want = append(want, val)
			case 1:
				n := rng.Intn(3)
				v.AppendNulls(n)
				for ; n > 0; n-- {
					want = append(want, Null)
				}
			default:
				src, vals := randSrc(1 + rng.Intn(6))
				var idx []int
				for n := rng.Intn(5); n > 0; n-- {
					idx = append(idx, rng.Intn(len(vals)))
				}
				v.AppendRows(&src, idx)
				for _, i := range idx {
					want = append(want, vals[i])
				}
			}
		}
		if v.Len() != len(want) {
			t.Fatalf("round %d: %d rows, want %d", round, v.Len(), len(want))
		}
		mixed, nulls := false, false
		var first Kind
		for i, w := range want {
			if got := v.Get(i); got != w {
				t.Fatalf("round %d row %d: got %v (%s), want %v (%s)", round, i, got, got.Kind, w, w.Kind)
			}
			switch {
			case w.IsNull():
				nulls = true
			case first == KindNull:
				first = w.Kind
			case w.Kind != first:
				mixed = true
			}
		}
		// A vector without NULLs is a bare lane exactly when its kinds agree.
		// (With NULLs it may box early: rows gathered from a typed source
		// bring its kind along even when all of them are NULL.)
		if !nulls && v.Dense() != (!mixed && len(want) > 0) {
			t.Fatalf("round %d: Dense()=%v for %v", round, v.Dense(), want)
		}
		if nulls && v.Dense() {
			t.Fatalf("round %d: Dense() with NULLs: %v", round, want)
		}
	}
}
