package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// prepareScan builds a table scan. With parallelism > 1 and more than one
// micro-partition the scan is morsel-driven: workers claim partitions from a
// shared counter and materialize them concurrently. Unless the planner proved
// the consumers order-insensitive, worker output merges back in partition
// order so results stay identical to the sequential scan.
func prepareScan(x *ScanNode, ctx *execContext) (batchIter, error) {
	colIdx := make([]int, len(x.Columns))
	for i, c := range x.Columns {
		idx := x.Table.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", x.Table.Name, c)
		}
		colIdx[i] = idx
	}
	var filter vecFn
	if x.Filter != nil {
		fn, err := compileVec(ctx, x.Schema(), x.Filter)
		if err != nil {
			return nil, err
		}
		filter = fn
	}
	parts := ctx.pinSnapshot(x.Table).Parts
	// A stateful pushed-down filter (SEQ8) must see rows in order; fall back
	// to the sequential scan rather than give each worker its own counter.
	if ctx.parallelism > 1 && len(parts) > 1 && !exprStateful(x.Filter) {
		return &morselScan{
			node: x, ctx: ctx, st: ctx.statsFor(x), colIdx: colIdx,
			parts: parts, ordered: !ctx.unorderedScans[x],
		}, nil
	}
	return &scanIter{
		node: x, ctx: ctx, st: ctx.statsFor(x), filter: filter,
		colIdx: colIdx, parts: parts,
	}, nil
}

// partitionPruned reports whether the zone maps rule out every row of p.
func partitionPruned(x *ScanNode, p *storage.Partition) bool {
	for _, pred := range x.Prunes {
		idx := x.Table.ColumnIndex(pred.Column)
		if idx < 0 {
			continue
		}
		if !p.MayMatch(idx, pred) {
			return true
		}
	}
	return false
}

// scanPartition cuts one partition's projected column chunks into batches of
// at most batchSize rows. Typed chunks hand out typed views (Slice) with a
// nil variant column — the typed fast path — and variant chunks alias the
// chunk storage as before; either way the batch is zero-copy against the
// partition. A persisted partition is cold-loaded here on first touch
// (EnsureLoaded), after pruning already had its say from the header zone
// maps. The pushed-down filter shrinks each batch's selection, and fully
// filtered batches are dropped. Returns the surviving batches and the chunk
// bytes read.
func scanPartition(ctx *execContext, p *storage.Partition, colIdx []int, filter vecFn, batchSize int) ([]*vector.Batch, int64, error) {
	read, err := p.EnsureLoaded()
	if err != nil {
		return nil, 0, err
	}
	if read {
		ctx.countDiskRead()
	}
	rows := p.NumRows()
	cols := make([][]variant.Value, len(colIdx))
	typed := make([]*vector.TypedCol, len(colIdx))
	anyTyped := false
	var bytes int64
	for i, idx := range colIdx {
		chunk := p.Column(idx)
		if tc := chunk.Typed(); tc != nil {
			typed[i] = tc
			anyTyped = true
		} else {
			cols[i] = chunk.Values()
		}
		bytes += chunk.Bytes()
	}
	var out []*vector.Batch
	for lo := 0; lo < rows; lo += batchSize {
		hi := lo + batchSize
		if hi > rows {
			hi = rows
		}
		bcols := make([][]variant.Value, len(cols))
		var btyped []*vector.TypedCol
		if anyTyped {
			btyped = make([]*vector.TypedCol, len(cols))
		}
		for c := range cols {
			if typed[c] != nil {
				btyped[c] = typed[c].Slice(lo, hi)
			} else {
				bcols[c] = cols[c][lo:hi:hi]
			}
		}
		b := &vector.Batch{Cols: bcols, Typed: btyped}
		if filter != nil {
			keep, err := filter(b)
			if err != nil {
				return nil, bytes, err
			}
			sel := appendTruthy(nil, b, keep)
			if len(sel) == 0 {
				continue
			}
			b = b.WithSel(sel)
		}
		out = append(out, b)
	}
	return out, bytes, nil
}

// --- sequential scan ----------------------------------------------------------

type scanIter struct {
	node    *ScanNode
	ctx     *execContext
	st      *OpStats
	filter  vecFn
	colIdx  []int
	parts   []*storage.Partition
	started bool
	pi      int // next partition to open
	pending []*vector.Batch
}

func (s *scanIter) NextBatch() (*vector.Batch, error) {
	if !s.started {
		s.started = true
		s.ctx.addScanCounts(s.st, len(s.parts), 0, 0)
	}
	for {
		if len(s.pending) > 0 {
			b := s.pending[0]
			s.pending = s.pending[1:]
			return b, nil
		}
		if s.pi >= len(s.parts) {
			return nil, nil
		}
		// One NextBatch call can chew through many pruned partitions before
		// producing a batch; the cancelIter wrap only polls between calls.
		if err := s.ctx.cancelled(); err != nil {
			return nil, err
		}
		p := s.parts[s.pi]
		s.pi++
		if partitionPruned(s.node, p) {
			s.ctx.addScanCounts(s.st, 0, 1, 0)
			continue
		}
		batches, bytes, err := scanPartition(s.ctx, p, s.colIdx, s.filter, s.ctx.batchSize)
		s.ctx.addScanCounts(s.st, 0, 0, bytes)
		if err != nil {
			return nil, err
		}
		s.pending = batches
	}
}

func (s *scanIter) Close() {}

// --- morsel-driven parallel scan ---------------------------------------------

// scanMsg is one partition's result, produced by a morsel worker.
type scanMsg struct {
	part    int
	batches []*vector.Batch
	err     error
}

// morselScan fans a scan's micro-partitions out to a worker pool. Each worker
// repeatedly claims the next partition index from an atomic counter (the
// morsel dispatch), prunes or materializes it, and sends the resulting
// batches to the driver. In ordered mode the driver holds a reorder buffer
// and releases partitions strictly in index order — byte-identical to the
// sequential scan; in unordered mode (consumers proved order-insensitive)
// partitions stream out as they complete, exchange-style.
type morselScan struct {
	node    *ScanNode
	ctx     *execContext
	st      *OpStats
	colIdx  []int
	parts   []*storage.Partition
	ordered bool

	started   bool
	results   chan scanMsg
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	nextPart int // ordered: next partition index to release
	consumed int // messages taken off the channel or buffer
	buffered map[int]scanMsg
	pending  []*vector.Batch
}

func (m *morselScan) start() {
	m.started = true
	m.ctx.addScanCounts(m.st, len(m.parts), 0, 0)
	workers := m.ctx.parallelism
	if workers > len(m.parts) {
		workers = len(m.parts)
	}
	m.results = make(chan scanMsg, workers)
	m.stop = make(chan struct{})
	m.buffered = make(map[int]scanMsg)
	var claim int64
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer m.wg.Done()
			// Each worker compiles its own filter: compiled expressions may
			// hold state, so they must not be shared across goroutines.
			var filter vecFn
			if m.node.Filter != nil {
				fn, err := compileVec(m.ctx, m.node.Schema(), m.node.Filter)
				if err != nil {
					select {
					case m.results <- scanMsg{part: -1, err: err}:
					case <-m.stop:
					}
					return
				}
				filter = fn
			}
			for {
				i := int(atomic.AddInt64(&claim, 1) - 1)
				if i >= len(m.parts) {
					return
				}
				msg := scanMsg{part: i}
				p := m.parts[i]
				if partitionPruned(m.node, p) {
					m.ctx.addScanCounts(m.st, 0, 1, 0)
				} else {
					batches, bytes, err := scanPartition(m.ctx, p, m.colIdx, filter, m.ctx.batchSize)
					m.ctx.addScanCounts(m.st, 0, 0, bytes)
					msg.batches, msg.err = batches, err
				}
				select {
				case m.results <- msg:
				case <-m.stop:
					return
				}
			}
		}()
	}
}

func (m *morselScan) NextBatch() (*vector.Batch, error) {
	if !m.started {
		m.start()
	}
	for {
		if len(m.pending) > 0 {
			b := m.pending[0]
			m.pending = m.pending[1:]
			return b, nil
		}
		if m.consumed >= len(m.parts) {
			return nil, nil
		}
		var msg scanMsg
		if m.ordered {
			buf, ok := m.buffered[m.nextPart]
			if ok {
				delete(m.buffered, m.nextPart)
				msg = buf
			} else {
				var err error
				if msg, err = m.recv(); err != nil {
					return nil, err
				}
				if msg.part >= 0 && msg.part != m.nextPart {
					m.buffered[msg.part] = msg
					continue
				}
			}
			m.nextPart++
		} else {
			var err error
			if msg, err = m.recv(); err != nil {
				return nil, err
			}
		}
		m.consumed++
		if msg.err != nil {
			return nil, msg.err
		}
		m.pending = msg.batches
	}
}

// recv blocks on the next worker message unless the query context is
// cancelled first — the driver's only blocking point, so a cancelled query
// never hangs here while workers drain into a full channel. (Close still
// releases the workers through the stop channel.)
func (m *morselScan) recv() (scanMsg, error) {
	select {
	case msg := <-m.results:
		return msg, nil
	case <-m.ctx.queryCtx().Done():
		return scanMsg{}, m.ctx.cancelled()
	}
}

// Close stops the worker pool and waits for the goroutines to exit; safe to
// call multiple times and before the first NextBatch.
func (m *morselScan) Close() {
	if !m.started {
		return
	}
	m.closeOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// --- order-sensitivity analysis ----------------------------------------------

// collectUnorderedScans marks the scans whose row order provably cannot
// affect the query result, allowing their morsel workers to skip the ordered
// merge. The analysis is conservative: scan order matters at the root (result
// rows come back in stream order) and the flag is only cleared by a global
// aggregate whose aggregates are all order-insensitive.
func collectUnorderedScans(n Node) map[Node]bool {
	m := make(map[Node]bool)
	markOrdered(n, true, m)
	return m
}

func markOrdered(n Node, orderMatters bool, m map[Node]bool) {
	switch x := n.(type) {
	case *ScanNode:
		if !orderMatters && !exprStateful(x.Filter) {
			m[x] = true
		}
	case *FilterNode:
		markOrdered(x.Input, orderMatters || exprStateful(x.Cond), m)
	case *ProjectNode:
		om := orderMatters
		for _, e := range x.Exprs {
			om = om || exprStateful(e)
		}
		markOrdered(x.Input, om, m)
	case *FlattenNode:
		markOrdered(x.Input, orderMatters || exprStateful(x.Expr), m)
	case *AggregateNode:
		// A global aggregate over order-insensitive accumulators erases its
		// input order entirely. Grouped aggregates keep order: output groups
		// appear in first-seen order.
		om := true
		if len(x.GroupBy) == 0 && aggsOrderInsensitive(x.Aggs) {
			om = false
		}
		for _, spec := range x.Aggs {
			om = om || exprStateful(spec.Arg)
		}
		for _, g := range x.GroupBy {
			om = om || exprStateful(g)
		}
		markOrdered(x.Input, om, m)
	case *ParallelAggNode:
		// The parallel aggregate claims storage partitions itself; its subtree
		// is replayed per partition by the phase-1 workers, never executed as a
		// streaming pipeline, so no scan below it may run as a morsel exchange.
		markOrdered(x.Input, true, m)
	case *JoinNode:
		// Probe order fixes output order; build-row insertion order fixes
		// match order within a key. Both sides inherit the parent's need.
		markOrdered(x.Left, true, m)
		markOrdered(x.Right, true, m)
	case *ParallelJoinNode:
		// The parallel build chunks the materialized build rows by input
		// index, so the build side must still arrive in order; probe order
		// fixes output order as in the sequential join.
		markOrdered(x.Left, true, m)
		markOrdered(x.Right, true, m)
	case *SortNode:
		// Stable sort: tied rows keep input order, so the input stays ordered
		// whenever the output order is observed.
		markOrdered(x.Input, orderMatters, m)
	case *ParallelSortNode:
		// The parallel sort's run split + stable merge preserves input order
		// among ties exactly like the sequential stable sort.
		markOrdered(x.Input, orderMatters, m)
	case *LimitNode:
		markOrdered(x.Input, true, m)
	case *UnionNode:
		markOrdered(x.Left, orderMatters, m)
		markOrdered(x.Right, orderMatters, m)
	}
}

// aggsOrderInsensitive reports whether every aggregate yields the same result
// for any permutation of its input. SUM/AVG over floats are excluded: float
// addition is not associative, so a different accumulation order can change
// low-order bits. DISTINCT and WITHIN GROUP specs are conservatively treated
// as order-sensitive.
func aggsOrderInsensitive(specs []AggSpec) bool {
	for _, s := range specs {
		if s.Distinct || len(s.OrderBy) > 0 {
			return false
		}
		switch s.Name {
		case "COUNT", "COUNT_IF", "MIN", "MAX", "BOOLAND_AGG", "BOOLOR_AGG":
		default:
			return false
		}
	}
	return true
}

// exprStateful reports whether evaluating e has side effects that make its
// result depend on evaluation order (the SEQ8/SEQ4 row-number counters).
// nil expressions are stateless.
func exprStateful(e sqlast.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *sqlast.Lit, *sqlast.ColRef, *sqlast.Star:
		return false
	case *sqlast.FuncCall:
		name := strings.ToUpper(x.Name)
		if name == "SEQ8" || name == "SEQ4" {
			return true
		}
		for _, a := range x.Args {
			if exprStateful(a) {
				return true
			}
		}
		return false
	case *sqlast.Binary:
		return exprStateful(x.Left) || exprStateful(x.Right)
	case *sqlast.Unary:
		return exprStateful(x.Operand)
	case *sqlast.IsNull:
		return exprStateful(x.Operand)
	case *sqlast.Cast:
		return exprStateful(x.Operand)
	case *sqlast.CaseWhen:
		for _, w := range x.Whens {
			if exprStateful(w.Cond) || exprStateful(w.Result) {
				return true
			}
		}
		return exprStateful(x.Else)
	}
	return true // unknown node: assume stateful
}
