// Package vector defines the columnar batch that flows between the engine's
// executor operators. A Batch is a fixed-capacity slice of column vectors of
// variant values plus an optional selection vector: filters shrink the
// selection instead of copying survivors, and scans hand out zero-copy views
// of the micro-partitions' column chunks. The layout follows the vectorized
// execution model of MonetDB/X100 and DuckDB, scaled to the embedded engine.
package vector

import "jsonpark/internal/variant"

// DefaultBatchSize is the number of rows one batch targets. 1024 keeps a
// batch's column vectors comfortably inside the L2 cache for typical variant
// widths while amortizing per-batch operator overhead over ~1000 rows.
const DefaultBatchSize = 1024

// Batch is one unit of columnar data flow. Cols holds the column vectors,
// all of equal length (the physical row count). Sel, when non-nil, lists the
// physical indices of the active (surviving) rows in increasing order;
// a nil Sel means every physical row is active.
//
// Typed, when non-nil, carries per-column typed views (parallel to Cols):
// Typed[c] non-nil means column c has a monomorphic encoding that typed
// expression kernels can run over directly, and Cols[c] may be nil until a
// consumer asks for the variant representation through Column — the
// materialize-to-variant escape hatch that keeps every row-oriented
// consumer working unchanged.
//
// Column vectors may alias storage owned by others (scan batches alias the
// micro-partition chunks; projections alias their inputs), so consumers must
// never mutate Cols in place — operators produce new vectors instead.
//
// A batch returned by an operator's NextBatch is valid until the next
// NextBatch or Close on that operator: producers reuse their output vectors
// (flatten) or emit their expression kernels' buffers (project). A consumer
// that keeps rows longer copies them first (Compact, AppendRows).
type Batch struct {
	Cols  [][]variant.Value
	Sel   []int
	Typed []*TypedCol
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// Len returns the physical row count (including filtered-out rows).
func (b *Batch) Len() int {
	for c, col := range b.Cols {
		if col != nil {
			return len(col)
		}
		if c < len(b.Typed) && b.Typed[c] != nil {
			return b.Typed[c].Len()
		}
	}
	return 0
}

// TypedCol returns column c's typed view, or nil when the column only has a
// variant representation.
func (b *Batch) TypedCol(c int) *TypedCol {
	if c < len(b.Typed) {
		return b.Typed[c]
	}
	return nil
}

// Column returns column c as variants, materializing a typed-only column on
// first access. The materialized vector is cached in Cols, so repeated reads
// (and views created by WithSel, which share the Cols backing array) pay the
// conversion once. The result must be treated as read-only like any column.
func (b *Batch) Column(c int) []variant.Value {
	if b.Cols[c] == nil {
		if tc := b.TypedCol(c); tc != nil {
			b.Cols[c] = tc.Materialize(make([]variant.Value, 0, tc.Len()))
		}
	}
	return b.Cols[c]
}

// Value returns the variant at (column c, physical row i). A typed-only
// column converts the single row in place instead of materializing the whole
// vector — the right trade for row-wise consumers (join probe, sort and
// spill row assembly, flatten) that read each row at most once.
func (b *Batch) Value(c, i int) variant.Value {
	if b.Cols[c] != nil {
		return b.Cols[c][i]
	}
	if tc := b.TypedCol(c); tc != nil {
		return tc.ValueAt(i)
	}
	return variant.Null
}

// NumRows returns the active row count.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len()
}

// WithSel returns a view of the batch restricted to the given physical
// indices. The column vectors (and typed views) are shared, so the view is
// free to construct; a materialization through either view is visible to
// both, since they share the Cols backing array.
func (b *Batch) WithSel(sel []int) *Batch { return &Batch{Cols: b.Cols, Sel: sel, Typed: b.Typed} }

// ForEach calls fn with the physical index of every active row, in order.
func (b *Batch) ForEach(fn func(phys int)) {
	if b.Sel != nil {
		for _, i := range b.Sel {
			fn(i)
		}
		return
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// ActiveSel returns the active physical indices as a slice. When Sel is nil
// a fresh dense selection is allocated, otherwise Sel itself is returned;
// callers must treat the result as read-only.
func (b *Batch) ActiveSel() []int {
	if b.Sel != nil {
		return b.Sel
	}
	n := b.Len()
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// Row gathers the physical row i into buf (grown as needed) and returns it.
func (b *Batch) Row(i int, buf []variant.Value) []variant.Value {
	if cap(buf) < len(b.Cols) {
		buf = make([]variant.Value, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for c := range b.Cols {
		buf[c] = b.Column(c)[i]
	}
	return buf
}

// AppendRows materializes every active row and appends them to rows. The
// rows of one call share a single backing slab, each capped at its width,
// so an append by the caller to one row copies it instead of overwriting
// its neighbour.
func (b *Batch) AppendRows(rows [][]variant.Value) [][]variant.Value {
	w := len(b.Cols)
	for c := range b.Cols {
		b.Column(c)
	}
	slab := make([]variant.Value, b.NumRows()*w)
	b.ForEach(func(i int) {
		row := slab[:w:w]
		slab = slab[w:]
		for c := range b.Cols {
			row[c] = b.Cols[c][i]
		}
		rows = append(rows, row)
	})
	return rows
}

// Gather appends column c's values at the given physical rows to dst and
// returns it. A typed-only column converts row by row and is never
// materialized whole, so gathering a few rows costs only those rows.
func (b *Batch) Gather(c int, rows []int, dst []variant.Value) []variant.Value {
	if col := b.Cols[c]; col != nil {
		for _, i := range rows {
			dst = append(dst, col[i])
		}
		return dst
	}
	tc := b.TypedCol(c)
	for _, i := range rows {
		if tc != nil {
			dst = append(dst, tc.ValueAt(i))
		} else {
			dst = append(dst, variant.Null)
		}
	}
	return dst
}

// Compact returns a dense copy of the active rows that shares no storage
// with b: every column is gathered into one slab owned by the caller. An
// operator that keeps rows past the producer's next NextBatch (the sort)
// compacts each batch on arrival.
func (b *Batch) Compact() *Batch {
	sel := b.ActiveSel()
	n := len(sel)
	slab := make([]variant.Value, 0, n*len(b.Cols))
	cols := make([][]variant.Value, len(b.Cols))
	for c := range cols {
		lo := len(slab)
		slab = b.Gather(c, sel, slab)
		cols[c] = slab[lo:len(slab):len(slab)]
	}
	return &Batch{Cols: cols}
}

// ColumnizeRows converts rows[lo:hi] from row-major to a dense column-major
// batch of the given width. Materializing operators (aggregate merge, sort
// output) emit their result rows through it.
func ColumnizeRows(rows [][]variant.Value, width, lo, hi int) *Batch {
	cols := make([][]variant.Value, width)
	for c := range cols {
		col := make([]variant.Value, hi-lo)
		for k := range col {
			col[k] = rows[lo+k][c]
		}
		cols[c] = col
	}
	return &Batch{Cols: cols}
}

// Truncate drops all but the first n active rows.
func (b *Batch) Truncate(n int) {
	if n >= b.NumRows() {
		return
	}
	if b.Sel == nil {
		b.Sel = b.ActiveSel()
	}
	b.Sel = b.Sel[:n]
}

// Builder accumulates rows into fixed-size batches. Operators that recombine
// rows (the join probe, the sort-run merge) feed it row-wise and emit dense
// batches of the configured size; each emitted batch owns fresh vectors.
type Builder struct {
	width int
	size  int
	cols  [][]variant.Value
	ready []*Batch
}

// NewBuilder returns a builder producing batches of the given width and row
// capacity.
func NewBuilder(width, size int) *Builder {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &Builder{width: width, size: size}
}

// Append adds one row (len must equal the builder width).
func (bu *Builder) Append(row []variant.Value) {
	if bu.cols == nil {
		bu.cols = make([][]variant.Value, bu.width)
		for i := range bu.cols {
			bu.cols[i] = make([]variant.Value, 0, bu.size)
		}
	}
	for i, v := range row {
		bu.cols[i] = append(bu.cols[i], v)
	}
	if bu.width > 0 && len(bu.cols[0]) >= bu.size {
		bu.ready = append(bu.ready, &Batch{Cols: bu.cols})
		bu.cols = nil
	}
}

// Pop returns the next completed batch, or nil if none is full yet.
func (bu *Builder) Pop() *Batch {
	if len(bu.ready) == 0 {
		return nil
	}
	b := bu.ready[0]
	bu.ready = bu.ready[1:]
	return b
}

// Flush returns any buffered partial batch (nil when empty). Call after the
// input is exhausted and Pop returned nil.
func (bu *Builder) Flush() *Batch {
	if bu.cols == nil || (bu.width > 0 && len(bu.cols[0]) == 0) {
		return nil
	}
	b := &Batch{Cols: bu.cols}
	bu.cols = nil
	return b
}
