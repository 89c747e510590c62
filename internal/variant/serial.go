package variant

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Exact binary (de)serialization. Unlike AppendGroupKey — which canonicalizes
// values into grouping equivalence classes (1 and 1.0 share an encoding,
// object keys sort) — this codec round-trips a Value bit-for-bit: integers
// keep their int64 payload, floats keep their exact bit pattern (NaN
// payloads, -0), and objects keep insertion order. The engine's spill files
// rely on that exactness: a row written to disk and read back must compare,
// group and render identically to the in-memory original, or spilling would
// change query output.
const (
	serNull   = 0x00
	serFalse  = 0x01
	serTrue   = 0x02
	serInt    = 0x03
	serFloat  = 0x04
	serString = 0x05
	serArray  = 0x06
	serObject = 0x07
)

// AppendBinary appends the exact binary encoding of v to dst and returns the
// extended slice. The encoding is self-delimiting, so concatenated values
// decode back without separators.
func (v Value) AppendBinary(dst []byte) []byte {
	switch v.kind {
	case KindBool:
		if v.num != 0 {
			return append(dst, serTrue)
		}
		return append(dst, serFalse)
	case KindInt:
		dst = append(dst, serInt)
		return binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		dst = append(dst, serFloat)
		return binary.BigEndian.AppendUint64(dst, v.num)
	case KindString:
		dst = append(dst, serString)
		dst = binary.AppendUvarint(dst, v.num)
		return append(dst, v.str()...)
	case KindArray:
		dst = append(dst, serArray)
		dst = binary.AppendUvarint(dst, v.num)
		for _, e := range v.arr() {
			dst = e.AppendBinary(dst)
		}
		return dst
	case KindObject:
		dst = append(dst, serObject)
		o := v.obj()
		keys := o.Keys()
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for i, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = o.ValueAt(i).AppendBinary(dst)
		}
		return dst
	}
	return append(dst, serNull)
}

// DecodeBinary decodes one value from the front of src, returning it and the
// unconsumed tail. Strings copy out of src, so the caller may reuse its
// buffer after decoding.
func DecodeBinary(src []byte) (Value, []byte, error) {
	if len(src) == 0 {
		return Null, nil, fmt.Errorf("variant: decode: empty input")
	}
	tag := src[0]
	src = src[1:]
	switch tag {
	case serNull:
		return Null, src, nil
	case serFalse:
		return Bool(false), src, nil
	case serTrue:
		return Bool(true), src, nil
	case serInt:
		n, w := binary.Varint(src)
		if w <= 0 {
			return Null, nil, fmt.Errorf("variant: decode: bad int varint")
		}
		return Int(n), src[w:], nil
	case serFloat:
		if len(src) < 8 {
			return Null, nil, fmt.Errorf("variant: decode: short float")
		}
		bits := binary.BigEndian.Uint64(src)
		return Value{kind: KindFloat, num: bits}, src[8:], nil
	case serString:
		n, w := binary.Uvarint(src)
		if w <= 0 || uint64(len(src)-w) < n {
			return Null, nil, fmt.Errorf("variant: decode: bad string length")
		}
		s := string(src[w : w+int(n)])
		return String(s), src[w+int(n):], nil
	case serArray:
		n, w := binary.Uvarint(src)
		if w <= 0 {
			return Null, nil, fmt.Errorf("variant: decode: bad array length")
		}
		src = src[w:]
		// Every element takes at least one byte, so the remaining input
		// bounds the preallocation; a corrupt length fails below instead.
		elems := make([]Value, 0, min(n, uint64(len(src))))
		for i := uint64(0); i < n; i++ {
			var e Value
			var err error
			e, src, err = DecodeBinary(src)
			if err != nil {
				return Null, nil, err
			}
			elems = append(elems, e)
		}
		return ArrayOf(elems), src, nil
	case serObject:
		n, w := binary.Uvarint(src)
		if w <= 0 {
			return Null, nil, fmt.Errorf("variant: decode: bad object length")
		}
		src = src[w:]
		o := newObjectCap(int(min(n, uint64(len(src)))))
		for i := uint64(0); i < n; i++ {
			klen, kw := binary.Uvarint(src)
			if kw <= 0 || uint64(len(src)-kw) < klen {
				return Null, nil, fmt.Errorf("variant: decode: bad object key")
			}
			key := string(src[kw : kw+int(klen)])
			src = src[kw+int(klen):]
			var f Value
			var err error
			f, src, err = DecodeBinary(src)
			if err != nil {
				return Null, nil, err
			}
			o.Set(key, f)
		}
		return ObjectValue(o), src, nil
	}
	return Null, nil, fmt.Errorf("variant: decode: unknown tag 0x%02x", tag)
}

// BinaryEqual reports whether two values encode to the same bytes — a
// stricter relation than Equal (it distinguishes Int(1) from Float(1.0), +0
// from -0, and object field orders). Spill tests use it to prove exact
// round-trips.
func BinaryEqual(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindFloat:
		return a.num == b.num || (math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat()))
	default:
		ab := a.AppendBinary(nil)
		bb := b.AppendBinary(nil)
		return string(ab) == string(bb)
	}
}
