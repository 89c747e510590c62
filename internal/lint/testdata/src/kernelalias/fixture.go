// Fixture for the kernelalias analyzer. The kernel type mirrors the
// engine's vecFn: its result may alias a closure-owned buffer that the next
// call overwrites.
package kernelalias

import (
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

type kernel = func(*vector.Batch) ([]variant.Value, error)

type op struct {
	fn  kernel
	out []variant.Value
}

// True positive: the buffer escapes into a struct field.
func (o *op) storeField(b *vector.Batch) error {
	vals, err := o.fn(b)
	if err != nil {
		return err
	}
	o.out = vals // want `kernel output vector stored in field o\.out`
	return nil
}

// True positive: returning the kernel's result hands the caller a vector
// that the next NextBatch invalidates.
func (o *op) returnDirect(b *vector.Batch) ([]variant.Value, error) {
	return o.fn(b) // want `kernel output vector returned without a copy`
}

// True positive: the taint flows through a local into a returned batch.
func (o *op) returnViaBatch(b *vector.Batch) (*vector.Batch, error) {
	cols := make([][]variant.Value, 1)
	vals, err := o.fn(b)
	if err != nil {
		return nil, err
	}
	cols[0] = vals
	return &vector.Batch{Cols: cols}, nil // want `kernel output vector returned without a copy`
}

// True positive: a closure stores the buffer in a variable that outlives
// the call.
func capture(fn kernel) func(*vector.Batch) error {
	var last []variant.Value
	return func(b *vector.Batch) error {
		vals, err := fn(b)
		if err != nil {
			return err
		}
		last = vals // want `kernel output vector stored in captured variable last`
		_ = last
		return nil
	}
}

// Guarded false positive: an ellipsis append copies the elements out of the
// buffer, so the retained slice is detached.
func (o *op) copyOut(b *vector.Batch) error {
	vals, err := o.fn(b)
	if err != nil {
		return err
	}
	o.out = append(o.out[:0], vals...)
	return nil
}

// Guarded false positive: element reads produce values, not the slice
// header; the hazard is retention, not use.
func (o *op) readElem(b *vector.Batch) (variant.Value, error) {
	vals, err := o.fn(b)
	if err != nil {
		return variant.Value{}, err
	}
	return vals[0], nil
}

// Guarded false positive: documented intentional aliasing is suppressed by
// the directive; linttest fails on any diagnostic without a want, so this
// line doubles as the suppression test.
func (o *op) suppressed(b *vector.Batch) error {
	vals, err := o.fn(b)
	if err != nil {
		return err
	}
	o.out = vals //jsqlint:ignore kernelalias fixture-documented aliasing
	return nil
}

// typedKernel mirrors the typed-kernel helpers of the engine's exprt.go:
// extra parameters after the leading batch (typed views, scratch buffers),
// same reused-output-buffer contract on the slice result.
type typedKernel = func(b *vector.Batch, scratch []variant.Value) ([]variant.Value, error)

type typedOp struct {
	fn  typedKernel
	out []variant.Value
}

// True positive: a typed kernel's result escapes into a struct field just
// like a plain vecFn's.
func (o *typedOp) storeField(b *vector.Batch) error {
	vals, err := o.fn(b, nil)
	if err != nil {
		return err
	}
	o.out = vals // want `kernel output vector stored in field o\.out`
	return nil
}

// True positive: returning the typed kernel's buffer without a copy.
func (o *typedOp) returnDirect(b *vector.Batch) ([]variant.Value, error) {
	return o.fn(b, nil) // want `kernel output vector returned without a copy`
}

// True positive: closure capture of a typed kernel's buffer.
func captureTyped(fn typedKernel) func(*vector.Batch) error {
	var last []variant.Value
	return func(b *vector.Batch) error {
		vals, err := fn(b, nil)
		if err != nil {
			return err
		}
		last = vals // want `kernel output vector stored in captured variable last`
		_ = last
		return nil
	}
}

// Guarded false positive: the ellipsis-append copy detaches from a typed
// kernel's buffer exactly as it does for a plain kernel's.
func (o *typedOp) copyOut(b *vector.Batch) error {
	vals, err := o.fn(b, o.out[:0])
	if err != nil {
		return err
	}
	o.out = append(o.out[:0], vals...)
	return nil
}

// Guarded false positive: a batch-leading helper whose first result is not
// a slice (count, error) is not a kernel; retaining its inputs is fine.
func countRows(b *vector.Batch, limit int) (int, error) {
	return b.NumRows(), nil
}

func useCount(b *vector.Batch) error {
	n, err := countRows(b, 10)
	if err != nil {
		return err
	}
	_ = n
	return nil
}

// producer stands in for an operator: the batch its NextBatch returns is
// valid only until the next call.
type producer struct{}

func (p *producer) NextBatch() (*vector.Batch, error) { return nil, nil }

// True positive: sort-style retention keeps every batch across NextBatch
// calls without copying it.
func retainBatches(p *producer) ([]*vector.Batch, error) {
	var kept []*vector.Batch
	for {
		b, err := p.NextBatch()
		if err != nil || b == nil {
			return kept, err
		}
		kept = append(kept, b) // want `NextBatch result appended without a copy`
	}
}

// True positive: keeping one column vector, or a selection view, is
// retention too.
func retainColumn(p *producer) ([][]variant.Value, error) {
	var cols [][]variant.Value
	b, err := p.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	cols = append(cols, b.Cols[0]) // want `NextBatch result appended without a copy`
	view := b.WithSel(nil)
	cols = append(cols, view.Cols...) // want `NextBatch result appended without a copy`
	return cols, nil
}

// True positive: handing a batch to another goroutine outlives the call.
func sendBatch(p *producer, ch chan *vector.Batch) error {
	b, err := p.NextBatch()
	if err != nil {
		return err
	}
	ch <- b // want `NextBatch result sent on a channel without a copy`
	return nil
}

// Guarded false positive: copying the rows on arrival detaches them from
// the producer's buffers.
func copyOnArrival(p *producer) ([]*vector.Batch, [][]variant.Value, error) {
	var kept []*vector.Batch
	var col []variant.Value
	var rows [][]variant.Value
	for {
		b, err := p.NextBatch()
		if err != nil || b == nil {
			return kept, rows, err
		}
		kept = append(kept, b.Compact())
		col = append(col, b.Cols[0]...)
		rows = b.AppendRows(rows)
		_ = col
	}
}

// Guarded false positive: passing a batch through to the caller is the
// contract's normal use — it expires with the caller's next call.
func passThrough(p *producer) (*vector.Batch, error) {
	b, err := p.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	return b.WithSel(nil), nil
}
