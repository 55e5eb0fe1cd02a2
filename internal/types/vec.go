package types

// Vec is a column vector: the values of one column across the rows of a
// batch. Two representations are supported:
//
//   - Typed: Kind names a uniform non-null kind and the matching payload
//     slice (I for Int/Date/Bool, F for Float, S for String) holds one
//     entry per row; Null, when non-nil, flags NULL rows (their payload
//     entry is the zero value). A vector of nothing but NULLs is typed with
//     Kind == KindNull and only the Null mask. Columnar page decoding,
//     typed gathers and the expression lanes produce this form.
//   - Boxed: Any holds one Value per row. It is the form of a column whose
//     kinds mix, and of results computed by the boxed expression loops.
//
// The zero Vec is empty. A Vec must not be mutated once shared: scan
// batches alias cached column blocks.
//
// An operator that owns a vector builds it with Reset and the Append
// methods, which keep it typed for as long as the kinds of its non-null
// values agree and box it on the first one that differs.
type Vec struct {
	Kind Kind
	Null []bool    // non-nil when the column has NULLs (typed form)
	I    []int64   // KindInt, KindDate, KindBool payloads
	F    []float64 // KindFloat payloads
	S    []string  // KindString payloads
	Any  []Value   // boxed form; takes precedence when non-nil
}

// Len returns the number of rows in the vector.
func (v *Vec) Len() int {
	if v.Any != nil {
		return len(v.Any)
	}
	switch v.Kind {
	case KindFloat:
		return len(v.F)
	case KindString:
		return len(v.S)
	case KindNull:
		return len(v.Null)
	default:
		return len(v.I)
	}
}

// Get materializes row i of the vector as a Value.
func (v *Vec) Get(i int) Value {
	if v.Any != nil {
		return v.Any[i]
	}
	if v.Null != nil && v.Null[i] {
		return Null
	}
	switch v.Kind {
	case KindFloat:
		return Value{Kind: KindFloat, F: v.F[i]}
	case KindString:
		return Value{Kind: KindString, S: v.S[i]}
	case KindNull:
		return Null
	default:
		return Value{Kind: v.Kind, I: v.I[i]}
	}
}

// Dense reports whether the vector is typed and free of NULLs — the shape
// whose payload slice a kernel may read as a bare lane.
func (v *Vec) Dense() bool {
	return v.Any == nil && v.Null == nil && v.Kind != KindNull
}

// Reset truncates an owned vector to zero rows, keeping the capacity of its
// payload slices. It must not be called on a vector that aliases another's
// storage.
func (v *Vec) Reset() {
	v.Kind = KindNull
	v.Null, v.Any = nil, nil
	v.I, v.F, v.S = v.I[:0], v.F[:0], v.S[:0]
}

// Append adds one value to an owned vector.
func (v *Vec) Append(val Value) {
	if v.Any != nil {
		v.Any = append(v.Any, val)
		return
	}
	if val.Kind == KindNull {
		v.AppendNulls(1)
		return
	}
	if v.Kind == KindNull {
		// Every row so far is NULL: adopt the kind and give those rows
		// their placeholder payload entries.
		n := len(v.Null)
		v.Kind = val.Kind
		v.appendZeros(n)
	} else if v.Kind != val.Kind {
		v.box(v.Len())
		v.Any = append(v.Any, val)
		return
	}
	if v.Null != nil {
		v.Null = append(v.Null, false)
	}
	switch v.Kind {
	case KindFloat:
		v.F = append(room(v.F, 1), val.F)
	case KindString:
		v.S = append(room(v.S, 1), val.S)
	default:
		v.I = append(room(v.I, 1), val.I)
	}
}

// AppendNulls adds n NULL rows to an owned vector.
func (v *Vec) AppendNulls(n int) {
	if n == 0 {
		return
	}
	if v.Any != nil {
		for ; n > 0; n-- {
			v.Any = append(v.Any, Null)
		}
		return
	}
	if v.Null == nil {
		v.Null = make([]bool, v.Len(), v.Len()+n)
	}
	for k := 0; k < n; k++ {
		v.Null = append(v.Null, true)
	}
	v.appendZeros(n)
}

// AppendRows adds rows idx of src, in that order, to an owned vector. A
// typed source of the vector's own kind is copied payload to payload.
func (v *Vec) AppendRows(src *Vec, idx []int) {
	if len(idx) == 0 {
		return
	}
	n := v.Len()
	if v.Any != nil || src.Any != nil || src.Kind == KindNull ||
		(v.Kind != src.Kind && (v.Kind != KindNull || n > 0)) {
		for _, i := range idx {
			v.Append(src.Get(i))
		}
		return
	}
	v.Kind = src.Kind
	if src.Null != nil {
		nulls := false
		for _, i := range idx {
			nulls = nulls || src.Null[i]
		}
		if nulls && v.Null == nil {
			v.Null = make([]bool, n, n+len(idx))
		}
	}
	if v.Null != nil {
		if src.Null != nil {
			v.Null = gather(v.Null, src.Null, idx)
		} else {
			v.Null = append(v.Null, make([]bool, len(idx))...)
		}
	}
	switch v.Kind {
	case KindFloat:
		v.F = gather(v.F, src.F, idx)
	case KindString:
		v.S = gather(v.S, src.S, idx)
	default:
		v.I = gather(v.I, src.I, idx)
	}
}

// room returns s with capacity for n more elements. A full slice at least
// doubles: vectors grow to thousands of rows, which append's 1.25x steps
// would reallocate, and copy, dozens of times.
func room[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(grown, s)
	return grown
}

// gather appends src[i] for each i of idx to dst.
func gather[T any](dst, src []T, idx []int) []T {
	n := len(dst)
	dst = room(dst, len(idx))[:n+len(idx)]
	out := dst[n:]
	for k, i := range idx {
		out[k] = src[i]
	}
	return dst
}

// appendZeros adds n placeholder payload entries (the payload of a NULL
// row); a vector whose kind is still undecided has no payload slice yet.
func (v *Vec) appendZeros(n int) {
	switch v.Kind {
	case KindNull:
	case KindFloat:
		v.F = append(v.F, make([]float64, n)...)
	case KindString:
		v.S = append(v.S, make([]string, n)...)
	default:
		v.I = append(v.I, make([]int64, n)...)
	}
}

// box converts the n typed rows to the boxed form, on a kind conflict.
func (v *Vec) box(n int) {
	boxed := make([]Value, n, 2*n+1)
	for i := range boxed {
		boxed[i] = v.Get(i)
	}
	v.Any = boxed
	v.Null = nil
	v.I, v.F, v.S = v.I[:0], v.F[:0], v.S[:0]
}
