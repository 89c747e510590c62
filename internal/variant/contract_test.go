package variant

import (
	"fmt"
	"testing"
)

// contractCase is one value of the accessor contract table. rank orders
// the table under Compare: cases with equal rank compare equal.
type contractCase struct {
	name string
	v    Value
	rank int
	want string
}

// bigObject returns an object with n fields f0..f{n-1}, enough to cross
// the small-object threshold.
func bigObject(n int) Value {
	o := NewObject()
	for i := 0; i < n; i++ {
		o.Set(fmt.Sprintf("f%d", i), Int(int64(i)))
	}
	o.Set("a", String("big"))
	return ObjectValue(o)
}

func contractCases() []contractCase {
	small := NewObject()
	small.Set("b", String("x"))
	small.Set("a", Int(1))
	small.Set("b", String("y")) // replace keeps position
	return []contractCase{
		{"null", Null, 0,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=false field=null index=null hash="n" gkey=00 bin=00 json=null size=1`},
		{"false", Bool(false), 1,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=false field=null index=null hash="bf" gkey=01 bin=01 json=false size=1`},
		{"true", Bool(true), 2,
			`bool=true int=1 float=5e-324 str="" arr=0/true obj=true len=0 truthy=true field=null index=null hash="bt" gkey=02 bin=02 json=true size=1`},
		{"int", Int(-3), 3,
			`bool=true int=-3 float=-3 str="" arr=0/true obj=true len=0 truthy=true field=null index=null hash="d-3" gkey=03c008000000000000 bin=0305 json=-3 size=8`},
		{"int0", Int(0), 4,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=false field=null index=null hash="d0" gkey=030000000000000000 bin=0300 json=0 size=8`},
		{"float", Float(2.5), 5,
			`bool=true int=4612811918334230528 float=2.5 str="" arr=0/true obj=true len=0 truthy=true field=null index=null hash="d2.5" gkey=034004000000000000 bin=044004000000000000 json=2.5 size=8`},
		{"empty string", String(""), 6,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=false field=null index=null hash="s0:" gkey=0400 bin=0500 json="" size=8`},
		{"string", String("héllo"), 7,
			`bool=false int=0 float=0 str="héllo" arr=0/true obj=true len=0 truthy=true field=null index=null hash="s6:héllo" gkey=040668c3a96c6c6f bin=050668c3a96c6c6f json="héllo" size=14`},
		{"nil array", ArrayOf(nil), 8,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=true field=null index=null hash="[]" gkey=0500 bin=0600 json=[] size=8`},
		{"empty array", Array(), 8,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=true field=null index=null hash="[]" gkey=0500 bin=0600 json=[] size=8`},
		{"array", Array(Int(1), String("x")), 9,
			`bool=false int=0 float=0 str="" arr=2/false obj=true len=2 truthy=true field=null index=1 hash="[d1,s1:x,]" gkey=0502033ff0000000000000040178 bin=06020302050178 json=[1,"x"] size=25`},
		{"nil object", ObjectValue(nil), 10,
			`bool=false int=0 float=0 str="" arr=0/true obj=true len=0 truthy=true field=null index=null hash="{}" gkey=0600 bin=0700 json={} size=8`},
		{"empty object", ObjectValue(NewObject()), 10,
			`bool=false int=0 float=0 str="" arr=0/true obj=false len=0 truthy=true field=null index=null hash="{}" gkey=0600 bin=0700 json={} size=8`},
		{"big object", bigObject(9), 12,
			`bool=false int=0 float=0 str="" arr=0/true obj=false len=10 truthy=true field="big" index=null hash="{a=s3:big,f0=d0,f1=d1,f2=d2,f3=d3,f4=d4,f5=d5,f6=d6,f7=d7,f8=d8,}" gkey=060a01610403626967026630030000000000000000026631033ff000000000000002663203400000000000000002663303400800000000000002663403401000000000000002663503401400000000000002663603401800000000000002663703401c000000000000026638034020000000000000 bin=070a02663003000266310302026632030402663303060266340308026635030a026636030c026637030e026638031001610503626967 json={"f0":0,"f1":1,"f2":2,"f3":3,"f4":4,"f5":5,"f6":6,"f7":7,"f8":8,"a":"big"} size=110`},
		{"small object", ObjectValue(small), 11,
			`bool=false int=0 float=0 str="" arr=0/true obj=false len=2 truthy=true field=1 index=null hash="{a=d1,b=s1:y,}" gkey=06020161033ff00000000000000162040179 bin=0702016205017901610302 json={"b":"y","a":1} size=27`},
	}
}

// describe renders every accessor of v on one line.
func describe(v Value) string {
	arr := v.AsArray()
	bin := v.AppendBinary(nil)
	return fmt.Sprintf("bool=%v int=%d float=%v str=%q arr=%d/%v obj=%v len=%d truthy=%v field=%s index=%s hash=%q gkey=%x bin=%x json=%s size=%d",
		v.AsBool(), v.AsInt(), v.AsFloat(), v.AsString(), len(arr), arr == nil, v.AsObject() == nil,
		v.Len(), v.Truthy(), v.Field("a"), v.Index(0), v.HashKey(), v.AppendGroupKey(nil), bin, v.JSON(), v.DeepSizeBytes())
}

// TestValueContract pins what every accessor returns for every kind, so a
// change to Value's representation cannot move any of them.
func TestValueContract(t *testing.T) {
	cases := contractCases()
	for _, c := range cases {
		if got := describe(c.v); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
		back, rest, err := DecodeBinary(c.v.AppendBinary(nil))
		if err != nil || len(rest) != 0 || !BinaryEqual(back, c.v) || Compare(back, c.v) != 0 {
			t.Errorf("%s: binary round trip = %v (rest %d, err %v)", c.name, back, len(rest), err)
		}
		if c.v.Kind() != KindNull {
			parsed, err := ParseJSON([]byte(c.v.JSON()))
			if err != nil || Compare(parsed, c.v) != 0 {
				t.Errorf("%s: JSON round trip = %v, %v", c.name, parsed, err)
			}
		}
	}
	for _, a := range cases {
		for _, b := range cases {
			want := 0
			switch {
			case a.rank < b.rank:
				want = -1
			case a.rank > b.rank:
				want = 1
			}
			if got := sign(Compare(a.v, b.v)); got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", a.name, b.name, got, want)
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}
