package vector

import (
	"testing"

	"jsonpark/internal/variant"
)

func intBatch(vals ...int64) *Batch {
	col := make([]variant.Value, len(vals))
	for i, v := range vals {
		col[i] = variant.Int(v)
	}
	return &Batch{Cols: [][]variant.Value{col}}
}

func TestBatchCounts(t *testing.T) {
	b := intBatch(1, 2, 3, 4, 5)
	if b.Width() != 1 || b.Len() != 5 || b.NumRows() != 5 {
		t.Fatalf("width=%d len=%d rows=%d", b.Width(), b.Len(), b.NumRows())
	}
	v := b.WithSel([]int{1, 3})
	if v.Len() != 5 || v.NumRows() != 2 {
		t.Fatalf("view len=%d rows=%d", v.Len(), v.NumRows())
	}
	// The view shares columns with the parent.
	if &v.Cols[0][0] != &b.Cols[0][0] {
		t.Fatal("WithSel copied columns")
	}
}

func TestBatchForEachAndAppendRows(t *testing.T) {
	b := intBatch(10, 11, 12, 13).WithSel([]int{0, 2, 3})
	var got []int64
	b.ForEach(func(i int) { got = append(got, b.Cols[0][i].AsInt()) })
	want := []int64{10, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	rows := b.AppendRows(nil)
	if len(rows) != 3 || rows[1][0].AsInt() != 12 {
		t.Fatalf("AppendRows = %v", rows)
	}
}

func TestBatchTruncate(t *testing.T) {
	b := intBatch(1, 2, 3, 4)
	b.Truncate(2)
	if b.NumRows() != 2 {
		t.Fatalf("rows=%d after truncate", b.NumRows())
	}
	sel := b.WithSel([]int{1, 2, 3})
	sel.Truncate(1)
	if sel.NumRows() != 1 || sel.Sel[0] != 1 {
		t.Fatalf("sel truncate: rows=%d sel=%v", sel.NumRows(), sel.Sel)
	}
	// Truncating beyond the active count is a no-op.
	sel.Truncate(10)
	if sel.NumRows() != 1 {
		t.Fatalf("over-truncate changed rows: %d", sel.NumRows())
	}
}

func TestActiveSelDense(t *testing.T) {
	b := intBatch(1, 2, 3)
	sel := b.ActiveSel()
	if len(sel) != 3 || sel[0] != 0 || sel[2] != 2 {
		t.Fatalf("dense sel = %v", sel)
	}
	view := b.WithSel([]int{2})
	if got := view.ActiveSel(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("view sel = %v", got)
	}
}

func TestBuilderEmitsFixedSizeBatches(t *testing.T) {
	bu := NewBuilder(2, 3)
	for i := 0; i < 7; i++ {
		bu.Append([]variant.Value{variant.Int(int64(i)), variant.String("x")})
	}
	var sizes []int
	for b := bu.Pop(); b != nil; b = bu.Pop() {
		sizes = append(sizes, b.NumRows())
	}
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 3 {
		t.Fatalf("full batches = %v", sizes)
	}
	tail := bu.Flush()
	if tail == nil || tail.NumRows() != 1 || tail.Cols[0][0].AsInt() != 6 {
		t.Fatalf("flush = %+v", tail)
	}
	if bu.Flush() != nil {
		t.Fatal("second flush not nil")
	}
}

func TestBuilderRowOrderPreserved(t *testing.T) {
	bu := NewBuilder(1, 4)
	for i := 0; i < 10; i++ {
		bu.Append([]variant.Value{variant.Int(int64(i))})
	}
	var got []int64
	drain := func(b *Batch) {
		if b == nil {
			return
		}
		b.ForEach(func(i int) { got = append(got, b.Cols[0][i].AsInt()) })
	}
	for b := bu.Pop(); b != nil; b = bu.Pop() {
		drain(b)
	}
	drain(bu.Flush())
	for i, v := range got {
		if int64(i) != v {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("lost rows: %v", got)
	}
}

// TestAppendRowsSlabRowsAreCapped: the rows of one AppendRows call share a
// slab, so each is capped at its width — an append to one row must copy it
// rather than overwrite the next row.
func TestAppendRowsSlabRowsAreCapped(t *testing.T) {
	b := &Batch{Cols: [][]variant.Value{
		{variant.Int(1), variant.Int(2), variant.Int(3)},
		{variant.String("a"), variant.String("b"), variant.String("c")},
	}}
	rows := b.AppendRows(nil)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if len(r) != 2 || cap(r) != 2 {
			t.Fatalf("row %d: len %d cap %d, want 2/2", i, len(r), cap(r))
		}
	}
	_ = append(rows[0], variant.Int(99))
	if got := rows[1][0].AsInt(); got != 2 {
		t.Fatalf("append to row 0 overwrote row 1: %d", got)
	}
}

// TestCompactCopiesActiveRows: Compact keeps exactly the active rows,
// converts typed-only columns row by row, and shares no storage with the
// source, so the source may be overwritten afterwards.
func TestCompactCopiesActiveRows(t *testing.T) {
	vcol := []variant.Value{variant.Int(10), variant.Int(11), variant.Int(12), variant.Int(13)}
	b := &Batch{
		Cols:  [][]variant.Value{vcol, nil},
		Typed: []*TypedCol{nil, NewStringCol([]string{"w", "x", "y", "z"}, nil)},
		Sel:   []int{1, 3},
	}
	c := b.Compact()
	vcol[1] = variant.Int(-1) // the producer reuses its vector
	if c.Sel != nil || c.NumRows() != 2 || c.Width() != 2 {
		t.Fatalf("compact: sel %v rows %d width %d", c.Sel, c.NumRows(), c.Width())
	}
	got := c.Cols[0][0].JSON() + c.Cols[0][1].JSON() + c.Cols[1][0].JSON() + c.Cols[1][1].JSON()
	if want := `1113"x""z"`; got != want {
		t.Fatalf("compact rows = %s, want %s", got, want)
	}
	if b.Cols[1] != nil {
		t.Fatal("Compact materialized the typed column of its source")
	}
}
