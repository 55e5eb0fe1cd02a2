package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"dbvirt/internal/types"
)

// Tuple is a row of values.
type Tuple []types.Value

// EncodeTuple serializes a tuple. Layout: uint16 field count, then per
// field one kind byte followed by the payload (8-byte fixed for numeric
// kinds, uint16 length + bytes for strings, nothing for NULL).
func EncodeTuple(t Tuple) []byte {
	buf := make([]byte, EncodedLen(t))
	binary.LittleEndian.PutUint16(buf, uint16(len(t)))
	off := 2
	for _, v := range t {
		buf[off] = byte(v.Kind)
		off++
		switch v.Kind {
		case types.KindNull:
		case types.KindInt, types.KindDate, types.KindBool:
			binary.LittleEndian.PutUint64(buf[off:], uint64(v.I))
			off += 8
		case types.KindFloat:
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.F))
			off += 8
		case types.KindString:
			if len(v.S) > math.MaxUint16 {
				panic(fmt.Sprintf("storage: string too long: %d bytes", len(v.S)))
			}
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(v.S)))
			off += 2
			copy(buf[off:], v.S)
			off += len(v.S)
		}
	}
	return buf
}

// EncodedLen returns len(EncodeTuple(t)) without encoding the tuple.
func EncodedLen(t Tuple) int {
	size := 2
	for _, v := range t {
		size++ // kind byte
		switch v.Kind {
		case types.KindNull:
		case types.KindInt, types.KindDate, types.KindBool, types.KindFloat:
			size += 8
		case types.KindString:
			size += 2 + len(v.S)
		default:
			panic(fmt.Sprintf("storage: cannot encode kind %v", v.Kind))
		}
	}
	return size
}

// DecodeTuple deserializes a tuple encoded by EncodeTuple.
func DecodeTuple(buf []byte) (Tuple, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("storage: tuple too short (%d bytes)", len(buf))
	}
	t := make(Tuple, binary.LittleEndian.Uint16(buf))
	if err := DecodeFields(buf, nil, t); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeFields decodes the fields of an encoded tuple that need selects
// (every field when need is nil) into dst, which must have one entry per
// field. A field that is not needed is stepped over without being
// materialized — no string is allocated for it — and its dst entry is left
// as it was.
func DecodeFields(buf []byte, need []bool, dst []types.Value) error {
	if len(buf) < 2 {
		return fmt.Errorf("storage: tuple too short (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if n != len(dst) {
		return fmt.Errorf("storage: tuple has %d fields, want %d", n, len(dst))
	}
	off := 2
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return fmt.Errorf("storage: truncated tuple at field %d", i)
		}
		kind := types.Kind(buf[off])
		off++
		want := need == nil || need[i]
		switch kind {
		case types.KindNull:
			if want {
				dst[i] = types.Null
			}
		case types.KindInt, types.KindDate, types.KindBool:
			if off+8 > len(buf) {
				return fmt.Errorf("storage: truncated tuple at field %d", i)
			}
			if want {
				dst[i] = types.Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(buf[off:]))}
			}
			off += 8
		case types.KindFloat:
			if off+8 > len(buf) {
				return fmt.Errorf("storage: truncated tuple at field %d", i)
			}
			if want {
				dst[i] = types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			}
			off += 8
		case types.KindString:
			if off+2 > len(buf) {
				return fmt.Errorf("storage: truncated tuple at field %d", i)
			}
			l := int(binary.LittleEndian.Uint16(buf[off:]))
			off += 2
			if off+l > len(buf) {
				return fmt.Errorf("storage: truncated string at field %d", i)
			}
			if want {
				dst[i] = types.NewString(string(buf[off : off+l]))
			}
			off += l
		default:
			return fmt.Errorf("storage: unknown kind %d at field %d", kind, i)
		}
	}
	return nil
}

// Clone returns a deep-enough copy of the tuple (values are immutable, so
// a slice copy suffices).
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}
