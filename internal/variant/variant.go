// Package variant implements the dynamically typed value model shared by
// every layer of jsonpark: the JSONiq runtime, the SQL engine, the Snowpark
// API, and the storage layer. It plays the role of Snowflake's VARIANT type:
// a tagged union over null, boolean, integer, double, string, array and
// object, with total ordering, numeric coercion and JSON (de)serialization.
package variant

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The dynamic kinds, in comparison order (null < bool < number < string <
// array < object). Int and Float compare as numbers.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindArray
	KindObject
)

// String returns the SQL-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "NUMBER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindArray:
		return "ARRAY"
	case KindObject:
		return "OBJECT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an immutable dynamically typed value. The zero Value is SQL NULL.
// Values are cheap to copy; arrays and objects share their backing storage,
// so callers must not mutate the slices returned by Array, Keys or Fields.
//
// Value is 24 bytes with a single pointer word, because every layer holds
// millions of them and the garbage collector scans each pointer word:
//
//   - null, bool, int and float keep their payload in num;
//   - a string keeps its data pointer in ptr and its length in num;
//   - an array keeps its element pointer in ptr and its length in num, so
//     AsArray returns a slice whose capacity equals its length;
//   - an object keeps its *Object in ptr.
//
// Only str, arr and obj rebuild the Go string, slice or pointer from ptr.
type Value struct {
	_    [0]func()      // keeps Value incomparable: == would compare pointers
	ptr  unsafe.Pointer // string data, first array element, or *Object
	num  uint64         // bool (0/1), int64 bits, float64 bits, or string/array length
	kind Kind
}

// str returns the string payload; v must be KindString.
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), int(v.num)) }

// arr returns the array payload (len == cap); v must be KindArray.
func (v Value) arr() []Value { return unsafe.Slice((*Value)(v.ptr), int(v.num)) }

// obj returns the object payload (possibly nil); v must be KindObject.
func (v Value) obj() *Object { return (*Object)(v.ptr) }

// smallObjectFields is the largest object whose fields Get and Set find by
// a linear scan of keys. The name index is built when a field is added
// beyond it.
const smallObjectFields = 8

// Object is an insertion-ordered string-keyed record.
type Object struct {
	keys   []string
	values []Value
	index  map[string]int // nil while len(keys) <= smallObjectFields
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a double value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// String returns a string value.
func String(s string) Value {
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// Array returns an array value wrapping vs without copying.
func Array(vs ...Value) Value { return ArrayOf(vs) }

// ArrayOf returns an array value backed directly by vs.
func ArrayOf(vs []Value) Value {
	return Value{kind: KindArray, ptr: unsafe.Pointer(unsafe.SliceData(vs)), num: uint64(len(vs))}
}

// NewObject returns an empty mutable object builder.
func NewObject() *Object { return &Object{} }

// newObjectCap returns an empty object with room for n fields.
func newObjectCap(n int) *Object {
	return &Object{keys: make([]string, 0, n), values: make([]Value, 0, n)}
}

// ObjectValue wraps a finished Object as a Value.
func ObjectValue(o *Object) Value { return Value{kind: KindObject, ptr: unsafe.Pointer(o)} }

// ObjectFromPairs builds an object value from alternating key, value pairs.
func ObjectFromPairs(pairs ...any) Value {
	if len(pairs)%2 != 0 {
		panic("variant.ObjectFromPairs: odd number of arguments")
	}
	o := NewObject()
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			panic("variant.ObjectFromPairs: key is not a string")
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic("variant.ObjectFromPairs: value is not a variant.Value")
		}
		o.Set(key, v)
	}
	return ObjectValue(o)
}

// Set inserts or replaces a field. It returns the object for chaining.
func (o *Object) Set(key string, v Value) *Object {
	if i := o.find(key); i >= 0 {
		o.values[i] = v
		return o
	}
	if o.index != nil {
		o.index[key] = len(o.keys)
	}
	o.keys = append(o.keys, key)
	o.values = append(o.values, v)
	if o.index == nil && len(o.keys) > smallObjectFields {
		o.index = make(map[string]int, len(o.keys))
		for i, k := range o.keys {
			o.index[k] = i
		}
	}
	return o
}

// find returns the position of key, or -1 when it is absent.
func (o *Object) find(key string) int {
	if o.index != nil {
		if i, ok := o.index[key]; ok {
			return i
		}
		return -1
	}
	for i, k := range o.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Get returns the value of a field and whether it is present.
func (o *Object) Get(key string) (Value, bool) {
	if o == nil {
		return Null, false
	}
	if i := o.find(key); i >= 0 {
		return o.values[i], true
	}
	return Null, false
}

// Len returns the number of fields.
func (o *Object) Len() int {
	if o == nil {
		return 0
	}
	return len(o.keys)
}

// Keys returns the insertion-ordered field names. Callers must not mutate it.
func (o *Object) Keys() []string {
	if o == nil {
		return nil
	}
	return o.keys
}

// ValueAt returns the i-th field value in insertion order.
func (o *Object) ValueAt(i int) Value { return o.values[i] }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumber reports whether v is an Int or Float.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsBool returns the boolean payload; v must be KindBool. It is false for
// strings, arrays and objects.
func (v Value) AsBool() bool { return v.kind < KindString && v.num != 0 }

// AsInt returns the integer payload; v must be KindInt. It is 0 for
// strings, arrays and objects.
func (v Value) AsInt() int64 {
	if v.kind >= KindString {
		return 0
	}
	return int64(v.num)
}

// AsFloat returns a float64 view of a numeric value (Int or Float). It is 0
// for strings, arrays and objects.
func (v Value) AsFloat() float64 {
	switch {
	case v.kind == KindInt:
		return float64(int64(v.num))
	case v.kind >= KindString:
		return 0
	}
	return math.Float64frombits(v.num)
}

// AsString returns the string payload; v must be KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return v.str()
}

// AsArray returns the backing slice of an array value. Callers must not
// mutate it; its capacity equals its length, so append copies.
func (v Value) AsArray() []Value {
	if v.kind != KindArray {
		return nil
	}
	return v.arr()
}

// AsObject returns the backing Object of an object value (possibly nil).
func (v Value) AsObject() *Object {
	if v.kind != KindObject {
		return nil
	}
	return v.obj()
}

// Field returns the named field of an object value. Accessing a field of a
// non-object, or a missing field, yields NULL — VARIANT semantics.
func (v Value) Field(name string) Value {
	if v.kind != KindObject {
		return Null
	}
	out, _ := v.obj().Get(name)
	return out
}

// Index returns the i-th element of an array value (0-based). Out-of-range
// or non-array access yields NULL.
func (v Value) Index(i int) Value {
	if v.kind != KindArray || i < 0 || i >= int(v.num) {
		return Null
	}
	return v.arr()[i]
}

// Len returns the number of elements of an array or fields of an object,
// and 0 for anything else.
func (v Value) Len() int {
	switch v.kind {
	case KindArray:
		return int(v.num)
	case KindObject:
		return v.obj().Len()
	}
	return 0
}

// Truthy reports the JSONiq effective boolean value: NULL and false are
// false; everything else follows JSONiq atomization rules (non-zero numbers,
// non-empty strings are true; arrays/objects are true).
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.num != 0
	case KindInt:
		return int64(v.num) != 0
	case KindFloat:
		f := math.Float64frombits(v.num)
		return f != 0 && !math.IsNaN(f)
	case KindString:
		return v.num != 0
	}
	return true
}

// Compare totally orders two values: NULL first, then by kind order, numbers
// compared numerically across Int/Float, strings lexicographically, arrays
// element-wise, objects by sorted key/value pairs. It returns -1, 0 or +1.
func Compare(a, b Value) int {
	ra, rb := rankOf(a.kind), rankOf(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		return boolCompare(a.num != 0, b.num != 0)
	case KindInt, KindFloat:
		if a.kind == KindInt && b.kind == KindInt {
			x, y := int64(a.num), int64(b.num)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindArray:
		xs, ys := a.arr(), b.arr()
		n := min(len(xs), len(ys))
		for i := 0; i < n; i++ {
			if c := Compare(xs[i], ys[i]); c != 0 {
				return c
			}
		}
		return len(xs) - len(ys)
	case KindObject:
		oa, ob := a.obj(), b.obj()
		ka := append([]string(nil), oa.Keys()...)
		kb := append([]string(nil), ob.Keys()...)
		sort.Strings(ka)
		sort.Strings(kb)
		n := len(ka)
		if len(kb) < n {
			n = len(kb)
		}
		for i := 0; i < n; i++ {
			if c := strings.Compare(ka[i], kb[i]); c != 0 {
				return c
			}
			va, _ := oa.Get(ka[i])
			vb, _ := ob.Get(kb[i])
			if c := Compare(va, vb); c != 0 {
				return c
			}
		}
		return len(ka) - len(kb)
	}
	return 0
}

func rankOf(k Kind) int {
	switch k {
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindArray:
		return 4
	case KindObject:
		return 5
	case KindBool:
		return 1
	}
	return 0 // null
}

func boolCompare(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// Equal reports deep equality under Compare's ordering.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// HashKey returns a string usable as a map key for grouping and joins. It is
// injective for scalar values and deep for arrays/objects.
func (v Value) HashKey() string {
	var b strings.Builder
	v.appendHash(&b)
	return b.String()
}

func (v Value) appendHash(b *strings.Builder) {
	switch v.kind {
	case KindNull:
		b.WriteByte('n')
	case KindBool:
		if v.num != 0 {
			b.WriteString("bt")
		} else {
			b.WriteString("bf")
		}
	case KindInt:
		// Integers and integral floats hash identically so that 1 and 1.0
		// group together, matching numeric comparison semantics.
		f := float64(int64(v.num))
		b.WriteByte('d')
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case KindFloat:
		b.WriteByte('d')
		b.WriteString(strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64))
	case KindString:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(v.num)))
		b.WriteByte(':')
		b.WriteString(v.str())
	case KindArray:
		b.WriteByte('[')
		for _, e := range v.arr() {
			e.appendHash(b)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case KindObject:
		b.WriteByte('{')
		o := v.obj()
		keys := append([]string(nil), o.Keys()...)
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			f, _ := o.Get(k)
			f.appendHash(b)
			b.WriteByte(',')
		}
		b.WriteByte('}')
	}
}

// DeepSizeBytes estimates the uncompressed in-memory footprint of v. The
// storage layer uses it for micro-partition sizing and bytes-scanned
// accounting. It is a logical size — 8 bytes per scalar, string or
// container header plus payloads — independent of how Value is laid out in
// memory, so spill thresholds and partition sizes do not move with it.
func (v Value) DeepSizeBytes() int64 {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindString:
		return int64(8 + v.num)
	case KindArray:
		var n int64 = 8
		for _, e := range v.arr() {
			n += e.DeepSizeBytes()
		}
		return n
	case KindObject:
		o := v.obj()
		var n int64 = 8
		for i, k := range o.Keys() {
			n += int64(len(k)) + o.ValueAt(i).DeepSizeBytes()
		}
		return n
	}
	return 0
}
