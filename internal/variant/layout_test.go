package variant

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// The tests in this file guard Value's unsafe layout: strings and arrays
// are kept as a raw pointer plus a length and rebuilt with unsafe.String /
// unsafe.Slice. `make race` runs them with -race, which also turns on the
// compiler's -d=checkptr instrumentation, so every one of those conversions
// is checked to stay inside a single live allocation.

// TestValueSize pins Value at three words. Widening it multiplies the
// memory and garbage-collector cost of every column, row and batch.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// churn allocates and drops garbage shaped like the dropped originals, so a
// Value left pointing at freed memory would read overwritten bytes.
func churn() {
	var keep [][]byte
	for i := 0; i < 256; i++ {
		keep = append(keep, bytes.Repeat([]byte{0xff}, 16+i%64))
	}
	runtime.KeepAlive(keep)
}

// TestValuesSurviveGC builds values whose only reference to their data is
// the Value itself, drops every original, collects repeatedly and
// re-checks the contents.
func TestValuesSurviveGC(t *testing.T) {
	type held struct {
		v    Value
		json string
	}
	build := func() []held {
		big := strings.Repeat("abcdefghij", 100) // built at run time, on the heap
		raw := []byte(`{"k":"from bytes"}`)
		elems := make([]Value, 8)
		for i := range elems {
			elems[i] = String(strings.Repeat("x", i+1))
		}
		o := NewObject()
		for i := 0; i < 12; i++ { // crosses the small-object threshold
			o.Set(string([]byte{'k', byte('a' + i)}), String(big[i:i+3]))
		}
		var nilBytes []byte
		return []held{
			{String(big[10:20]), `"abcdefghij"`},
			{String(string(raw)), `"{\"k\":\"from bytes\"}"`},
			{String(""), `""`},
			{String(string(nilBytes)), `""`},
			{ArrayOf(elems[2:5]), `["xxx","xxxx","xxxxx"]`},
			{ArrayOf(elems[8:]), `[]`}, // zero length, taken at cap
			{ArrayOf(elems[3:3]), `[]`},
			{ArrayOf(nil), `[]`},
			{Array(String(big[:2]), ArrayOf(elems[7:])), `["ab",["xxxxxxxx"]]`},
			{ObjectValue(o), `{"ka":"abc","kb":"bcd","kc":"cde","kd":"def","ke":"efg","kf":"fgh","kg":"ghi","kh":"hij","ki":"ija","kj":"jab","kk":"abc","kl":"bcd"}`},
		}
	}
	hs := build()
	for round := 0; round < 5; round++ {
		churn()
		runtime.GC()
		for _, h := range hs {
			if got := h.v.JSON(); got != h.json {
				t.Fatalf("round %d: %s, want %s", round, got, h.json)
			}
		}
	}
	if got := hs[9].v.Field("kl").AsString(); got != "bcd" {
		t.Fatalf("indexed field after GC = %q, want bcd", got)
	}
}

// TestAppendToAsArrayCopies checks that appending to an array's slice never
// writes into backing storage another value shares.
func TestAppendToAsArrayCopies(t *testing.T) {
	backing := make([]Value, 2, 8)
	backing[0], backing[1] = Int(1), Int(2)
	whole := ArrayOf(backing)
	prefix := ArrayOf(backing[:1])
	if got := cap(prefix.AsArray()); got != 1 {
		t.Fatalf("cap(AsArray) = %d, want len 1", got)
	}
	grown := append(prefix.AsArray(), Int(99))
	if whole.Index(1).AsInt() != 2 || backing[1].AsInt() != 2 {
		t.Fatalf("append through AsArray overwrote a shared element: %v", whole)
	}
	if len(grown) != 2 || grown[1].AsInt() != 99 || prefix.Len() != 1 {
		t.Fatalf("grown = %v, prefix = %v", ArrayOf(grown), prefix)
	}
}

// TestObjectIndexThreshold checks lookups, replacement and order on both
// sides of the point where an object builds its name index.
func TestObjectIndexThreshold(t *testing.T) {
	o := NewObject()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"}
	for n, name := range names {
		o.Set(name, Int(int64(n)))
		if (o.index != nil) != (o.Len() > smallObjectFields) {
			t.Fatalf("%d fields: index built = %v", o.Len(), o.index != nil)
		}
		o.Set(names[0], Int(int64(-n))) // replace keeps position
		for m := 1; m <= n; m++ {
			if v, ok := o.Get(names[m]); !ok || v.AsInt() != int64(m) {
				t.Fatalf("%d fields: Get(%s) = %v, %v", o.Len(), names[m], v, ok)
			}
		}
		if v, _ := o.Get("a"); v.AsInt() != int64(-n) || o.Keys()[0] != "a" {
			t.Fatalf("%d fields: replaced a = %v, keys %v", o.Len(), v, o.Keys())
		}
		if _, ok := o.Get("zz"); ok {
			t.Fatalf("%d fields: Get(zz) found a missing field", o.Len())
		}
	}
	if got := strings.Join(o.Keys(), ""); got != strings.Join(names, "") {
		t.Fatalf("keys = %s", got)
	}
	var nilObj *Object
	if v, ok := nilObj.Get("a"); ok || !v.IsNull() || nilObj.Len() != 0 || nilObj.Keys() != nil {
		t.Fatal("nil *Object must read as empty")
	}
}

// FuzzValueCodec parses two JSON documents and checks that the binary
// codec, the group key and JSON rendering round-trip each value, and that
// Compare orders the round-tripped values as it orders the originals. The
// first input is also decoded as raw binary, which must return a value or
// an error, never panic. The seed corpus runs under plain `go test`.
func FuzzValueCodec(f *testing.F) {
	seeds := [][2]string{
		{`null`, `false`},
		{`1`, `1.0`},
		{`-0.0`, `0`},
		{`9007199254740993`, `9007199254740992`},
		{`""`, `"héllo"`},
		{`[]`, `[1,"x",[null,true]]`},
		{`{}`, `{"b":"y","a":1}`},
		{`{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"j":{"k":[]}}`, `{"a":1,"b":2}`},
		{`{"event":1,"jets":[{"pt":30.5,"eta":-1.2},{"pt":12,"eta":0.4}]}`, `[1e300,-1e-300]`},
		{corruptArrayLen, `null`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, ja, jb string) {
		_, _, _ = DecodeBinary([]byte(ja)) // arbitrary bytes: only a panic fails
		a, errA := ParseJSON([]byte(ja))
		b, errB := ParseJSON([]byte(jb))
		if errA != nil || errB != nil {
			return
		}
		want := sign(Compare(a, b))
		for _, rt := range []struct {
			name string
			f    func(Value) Value
		}{
			{"binary", func(v Value) Value {
				out, rest, err := DecodeBinary(v.AppendBinary(nil))
				if err != nil || len(rest) != 0 || !BinaryEqual(out, v) {
					t.Fatalf("binary round trip of %s = %s (rest %d, err %v)", v, out, len(rest), err)
				}
				return out
			}},
			{"json", func(v Value) Value {
				out, err := ParseJSON([]byte(v.JSON()))
				if err != nil {
					t.Fatalf("reparse %s: %v", v, err)
				}
				return out
			}},
		} {
			ra, rb := rt.f(a), rt.f(b)
			for _, p := range [][2]Value{{a, ra}, {b, rb}} {
				if Compare(p[0], p[1]) != 0 || p[0].HashKey() != p[1].HashKey() ||
					!bytes.Equal(p[0].AppendGroupKey(nil), p[1].AppendGroupKey(nil)) ||
					p[0].DeepSizeBytes() != p[1].DeepSizeBytes() {
					t.Fatalf("%s round trip changed %s into %s", rt.name, p[0], p[1])
				}
			}
			if got := sign(Compare(ra, rb)); got != want {
				t.Fatalf("%s: Compare(%s, %s) = %d after round trip, %d before", rt.name, a, b, got, want)
			}
		}
	})
}

// corruptArrayLen is an array tag with a length prefix near 2^63 and no
// elements: a damaged spill record.
const corruptArrayLen = "\x06\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

// TestDecodeCorruptArrayLength pins that a corrupt array length is a decode
// error, not a "makeslice: cap out of range" panic.
func TestDecodeCorruptArrayLength(t *testing.T) {
	for _, in := range []string{corruptArrayLen, corruptArrayLen + "\x00\x00", "\x06\x03\x00"} {
		if v, _, err := DecodeBinary([]byte(in)); err == nil {
			t.Errorf("DecodeBinary(% x) = %s, want an error", in, v)
		}
	}
}
