package variant

import (
	"encoding/binary"
	"math"
	"sort"
)

// Binary group-key encoding. AppendGroupKey is the allocation-free
// replacement for HashKey on the hot grouping paths: hash aggregation,
// hash-join build/probe and DISTINCT dedup all key their tables with it,
// reusing one caller-owned buffer per operator instead of building a string
// per row.
//
// The encoding preserves HashKey's equivalence classes exactly:
//
//   - numbers key by float64 value, so Int(1) and Float(1.0) share a key,
//     +0 and -0 do not, integers beyond 2^53 collapse onto their float64
//     rounding, and every NaN payload shares one canonical key;
//   - strings, booleans and null key by identity;
//   - arrays key element-wise, objects by sorted key/value pairs.
//
// Every encoding is self-delimiting (tag byte, then a fixed-width or
// length-prefixed payload), so the concatenation of a key tuple's encodings
// stays injective without separators.
const (
	groupKeyNull   = 0x00
	groupKeyFalse  = 0x01
	groupKeyTrue   = 0x02
	groupKeyNumber = 0x03
	groupKeyString = 0x04
	groupKeyArray  = 0x05
	groupKeyObject = 0x06
)

// canonicalNaNBits is the single bit pattern all NaNs encode as, mirroring
// strconv.FormatFloat collapsing every NaN payload to "NaN" in HashKey.
var canonicalNaNBits = math.Float64bits(math.NaN())

// AppendGroupKey appends the canonical binary encoding of v to dst and
// returns the extended slice. The caller owns dst; encoding allocates only
// when dst must grow.
func (v Value) AppendGroupKey(dst []byte) []byte {
	switch v.kind {
	case KindBool:
		if v.num != 0 {
			return append(dst, groupKeyTrue)
		}
		return append(dst, groupKeyFalse)
	case KindInt:
		// Integers key through float64 like HashKey, so 1 and 1.0 group
		// together under numeric comparison semantics.
		return appendGroupKeyNumber(dst, float64(int64(v.num)))
	case KindFloat:
		return appendGroupKeyNumber(dst, math.Float64frombits(v.num))
	case KindString:
		dst = append(dst, groupKeyString)
		dst = binary.AppendUvarint(dst, v.num)
		return append(dst, v.str()...)
	case KindArray:
		dst = append(dst, groupKeyArray)
		dst = binary.AppendUvarint(dst, v.num)
		for _, e := range v.arr() {
			dst = e.AppendGroupKey(dst)
		}
		return dst
	case KindObject:
		dst = append(dst, groupKeyObject)
		o := v.obj()
		keys := append([]string(nil), o.Keys()...)
		sort.Strings(keys)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			f, _ := o.Get(k)
			dst = f.AppendGroupKey(dst)
		}
		return dst
	}
	return append(dst, groupKeyNull)
}

func appendGroupKeyNumber(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if f != f {
		bits = canonicalNaNBits
	}
	dst = append(dst, groupKeyNumber)
	return binary.BigEndian.AppendUint64(dst, bits)
}
