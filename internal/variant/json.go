package variant

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseJSON decodes one JSON document into a Value. Numbers without a
// fractional part or exponent decode as KindInt when they fit in int64,
// otherwise as KindFloat.
func ParseJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, fmt.Errorf("variant: parse json: %w", err)
	}
	return FromAny(raw)
}

// MustParseJSON is ParseJSON that panics on error; intended for tests and
// literals in examples.
func MustParseJSON(s string) Value {
	v, err := ParseJSON([]byte(s))
	if err != nil {
		panic(err)
	}
	return v
}

// FromAny converts a decoded encoding/json value (or plain Go scalars,
// slices and maps) into a Value. Map keys are emitted in sorted order so the
// conversion is deterministic.
func FromAny(raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool(x), nil
	case string:
		return String(x), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return Null, fmt.Errorf("variant: bad number %q: %w", x, err)
		}
		return Float(f), nil
	case int:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case []any:
		arr := make([]Value, len(x))
		for i, e := range x {
			v, err := FromAny(e)
			if err != nil {
				return Null, err
			}
			arr[i] = v
		}
		return ArrayOf(arr), nil
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		o := newObjectCap(len(keys))
		for _, k := range keys {
			v, err := FromAny(x[k])
			if err != nil {
				return Null, err
			}
			o.Set(k, v)
		}
		return ObjectValue(o), nil
	case Value:
		return x, nil
	}
	return Null, fmt.Errorf("variant: unsupported Go type %T", raw)
}

// JSON renders v as compact JSON. NaN and infinities render as null, which
// matches how engines serialize non-finite doubles into JSON output.
func (v Value) JSON() string {
	var b strings.Builder
	v.appendJSON(&b)
	return b.String()
}

func (v Value) appendJSON(b *strings.Builder) {
	switch v.kind {
	case KindNull:
		b.WriteString("null")
	case KindBool:
		if v.num != 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case KindInt:
		b.WriteString(strconv.FormatInt(int64(v.num), 10))
	case KindFloat:
		f := math.Float64frombits(v.num)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			b.WriteString("null")
			return
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		b.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			b.WriteString(".0") // keep doubles distinguishable from ints
		}
	case KindString:
		enc, _ := json.Marshal(v.str())
		b.Write(enc)
	case KindArray:
		b.WriteByte('[')
		for i, e := range v.arr() {
			if i > 0 {
				b.WriteByte(',')
			}
			e.appendJSON(b)
		}
		b.WriteByte(']')
	case KindObject:
		b.WriteByte('{')
		o := v.obj()
		for i, k := range o.Keys() {
			if i > 0 {
				b.WriteByte(',')
			}
			enc, _ := json.Marshal(k)
			b.Write(enc)
			b.WriteByte(':')
			o.ValueAt(i).appendJSON(b)
		}
		b.WriteByte('}')
	}
}

// String implements fmt.Stringer with the JSON rendering.
func (v Value) String() string { return v.JSON() }
