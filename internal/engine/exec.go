package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// execContext carries per-query runtime state shared by all operators.
// Scan workers run on multiple goroutines, so the shared metrics (and the
// scan operators' stats slots) are updated under mu.
type execContext struct {
	metrics *Metrics
	mu      sync.Mutex
	// stats, when non-nil, enables per-operator metering (EXPLAIN ANALYZE):
	// prepare wraps every operator in a statIter writing into its node's slot.
	stats map[Node]*OpStats
	// batchSize is the target row count of one vector.Batch.
	batchSize int
	// parallelism caps the morsel worker pool of each scan and the worker
	// pools of the parallel pipeline breakers.
	parallelism int
	// mergeParts is the hash-partition count of the parallel aggregate's
	// merge phase (defaults to parallelism).
	mergeParts int
	// unorderedScans marks scans whose consumers are provably insensitive to
	// row order; their morsel workers emit batches as they complete instead
	// of merging in partition order.
	unorderedScans map[Node]bool
	// planCheck wraps every operator in a checkIter validating the batch
	// contract at run time (the planck debug pass).
	planCheck bool
	// qctx is the query's cancellation context, installed by Prepared.RunCtx
	// before the first NextBatch. Every operator is wrapped in a cancelIter
	// checking it, and the parallel workers poll it between morsels.
	qctx context.Context
	// acct is the query's shared memory accountant (mem.go); the pipeline
	// breakers charge retained bytes against it and spill on overflow.
	acct *memAccountant
	// prog, when non-nil, carries the query's live per-operator counters
	// (progress.go): prepare wraps each operator in a progIter and the
	// memory-governed breakers mirror their charges into it.
	prog *queryProgress
	// batchHook, when non-nil, runs after every root batch RunCtx drains
	// (test instrumentation for observing queries mid-flight).
	batchHook func()
	// snapshots pins each scanned table's partition set for the whole query:
	// the first pin (at bind) seals buffered rows and fixes the MVCC read
	// view, and every later scan of the same table — including the parallel
	// aggregate's partition claims — reuses the pinned set, so one query can
	// never observe a torn snapshot across concurrent appends. Pins happen
	// on the driver goroutine only (prepare and the breaker drivers), so the
	// map needs no lock. The pinned versions also key the result cache.
	snapshots map[*storage.Table]storage.TableSnapshot
	// Storage-path counters (atomic; see countTypedCols and friends below).
	typedCols    int64
	fallbackCols int64
	diskReads    int64
}

// pinSnapshot returns the query's pinned snapshot of t, taking it on first
// use. Driver-goroutine only (see the snapshots field).
func (c *execContext) pinSnapshot(t *storage.Table) storage.TableSnapshot {
	if s, ok := c.snapshots[t]; ok {
		return s
	}
	if c.snapshots == nil {
		c.snapshots = make(map[*storage.Table]storage.TableSnapshot)
	}
	s := t.Snapshot()
	c.snapshots[t] = s
	return s
}

// queryCtx returns the query's cancellation context (never nil).
func (c *execContext) queryCtx() context.Context {
	if c.qctx == nil {
		return context.Background()
	}
	return c.qctx
}

// cancelled returns the context error, wrapped so callers can still match
// context.Canceled / context.DeadlineExceeded with errors.Is.
func (c *execContext) cancelled() error {
	if err := c.queryCtx().Err(); err != nil {
		return fmt.Errorf("engine: query interrupted: %w", err)
	}
	return nil
}

// addScanCounts merges one partition's accounting into the shared metrics
// and the scan's stats slot. Called concurrently by morsel workers.
func (c *execContext) addScanCounts(st *OpStats, totalParts, pruned int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics.PartitionsTotal += totalParts
	c.metrics.PartitionsPruned += pruned
	c.metrics.BytesScanned += bytes
	if st != nil {
		st.PartitionsTotal += totalParts
		st.PartitionsPruned += pruned
		st.BytesScanned += bytes
	}
}

// Storage-path counters, updated atomically: expression kernels run on
// morsel workers and the parallel breakers' goroutines. All three methods
// are nil-safe so compiled expressions also work without an execContext
// (benchmarks, tests).

// countTypedCols records n column reads served by typed kernels.
func (c *execContext) countTypedCols(n int) {
	if c != nil {
		atomic.AddInt64(&c.typedCols, int64(n))
	}
}

// countFallbackCols records n typed columns materialized to variants.
func (c *execContext) countFallbackCols(n int) {
	if c != nil {
		atomic.AddInt64(&c.fallbackCols, int64(n))
	}
}

// countDiskRead records one partition data section loaded from disk.
func (c *execContext) countDiskRead() {
	if c != nil {
		atomic.AddInt64(&c.diskReads, 1)
	}
}

// batchIter is the vectorized executor interface: operators exchange
// columnar batches instead of single rows. A nil batch signals end of
// stream. Close releases operator resources (morsel worker pools); it must
// be safe to call more than once and after EOF.
type batchIter interface {
	NextBatch() (*vector.Batch, error)
	Close()
}

// prepare compiles a logical plan into an executable operator tree, wrapping
// each operator with a metering iterator when the query is analyzed. All
// expression compilation happens here, so preparation cost is part of the
// measured compile phase.
func prepare(n Node, ctx *execContext) (batchIter, error) {
	it, err := prepareNode(n, ctx)
	if err != nil {
		return it, err
	}
	// Every operator checks the query context once per batch, so a cancel or
	// deadline surfaces within one batch of work on any pipeline.
	it = &cancelIter{in: it, c: ctx}
	if ctx.planCheck {
		op, _ := describeNode(n)
		it = &checkIter{in: it, op: op}
	}
	if ctx.stats != nil {
		it = &statIter{in: it, st: ctx.statsFor(n)}
	}
	if slot := ctx.progFor(n); slot != nil {
		it = &progIter{in: it, p: slot}
	}
	return it, nil
}

// cancelIter propagates query cancellation through the operator tree. The
// raw context error stays the error chain's root, so callers can match
// context.Canceled / context.DeadlineExceeded end to end.
type cancelIter struct {
	in batchIter
	c  *execContext
}

func (ci *cancelIter) NextBatch() (*vector.Batch, error) {
	if err := ci.c.cancelled(); err != nil {
		return nil, err
	}
	return ci.in.NextBatch()
}

func (ci *cancelIter) Close() { ci.in.Close() }

// prepareNode builds the operator for one plan node; children are built via
// prepare so they get metered too.
func prepareNode(n Node, ctx *execContext) (batchIter, error) {
	switch x := n.(type) {
	case *ScanNode:
		return prepareScan(x, ctx)
	case *FilterNode:
		in, err := prepare(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		cond, err := compileVec(ctx, x.Input.Schema(), x.Cond)
		if err != nil {
			in.Close()
			return nil, err
		}
		return &filterIter{in: in, cond: cond}, nil
	case *ProjectNode:
		in, err := prepare(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		fns, err := compileVecs(ctx, x.Input.Schema(), x.Exprs)
		if err != nil {
			in.Close()
			return nil, err
		}
		return &projectIter{in: in, fns: fns, alias: colRefIndexes(x.Input.Schema(), x.Exprs)}, nil
	case *FlattenNode:
		in, err := prepare(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		input, err := compileVec(ctx, x.Input.Schema(), x.Expr)
		if err != nil {
			in.Close()
			return nil, err
		}
		return newFlattenIter(in, input, x.Outer, len(x.Input.Schema().Names), ctx.batchSize), nil
	case *AggregateNode:
		return prepareAggregate(x, ctx)
	case *ParallelAggNode:
		return prepareParallelAgg(x, ctx)
	case *JoinNode:
		return prepareJoin(x, ctx, 1, x)
	case *ParallelJoinNode:
		return prepareJoin(x.JoinNode, ctx, x.BuildWorkers, x)
	case *SortNode:
		return prepareSort(x, ctx, 1, x)
	case *ParallelSortNode:
		return prepareSort(x.SortNode, ctx, x.SortWorkers, x)
	case *LimitNode:
		in, err := prepare(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, remaining: x.N}, nil
	case *viewRowsNode:
		// Materialized-view suffix replay: the aggregate's finalized rows feed
		// the stateless operators above it (views.go).
		return &rowsIter{rows: x.rows, width: len(x.schema.Names), size: ctx.batchSize}, nil
	case *UnionNode:
		left, err := prepare(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := prepare(x.Right, ctx)
		if err != nil {
			left.Close()
			return nil, err
		}
		return &unionIter{iters: []batchIter{left, right}}, nil
	}
	return nil, fmt.Errorf("engine: cannot prepare node %T", n)
}

// drainRows pulls every batch from an iterator and materializes the active
// rows.
func drainRows(it batchIter) ([][]variant.Value, error) {
	return drainRowsHooked(it, nil)
}

// drainRowsHooked is drainRows with an optional per-batch callback, run
// after each non-nil batch is materialized (test instrumentation).
func drainRowsHooked(it batchIter, hook func()) ([][]variant.Value, error) {
	var out [][]variant.Value
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		//jsqlint:ignore memcharge result rows are the query's output handed to the caller, not operator-retained state; the governance budget covers breaker state, not the client result set
		out = b.AppendRows(out)
		if hook != nil {
			hook()
		}
	}
}

// appendTruthy appends to sel the physical indices of the active rows whose
// value is non-NULL and SQL-true.
func appendTruthy(sel []int, b *vector.Batch, vals []variant.Value) []int {
	b.ForEach(func(i int) {
		if !vals[i].IsNull() && truthySQL(vals[i]) {
			sel = append(sel, i)
		}
	})
	return sel
}

// --- filter / project / flatten ---------------------------------------------

type filterIter struct {
	in   batchIter
	cond vecFn
	sel  []int // selection of the last emitted batch, reused
}

func (f *filterIter) NextBatch() (*vector.Batch, error) {
	for {
		b, err := f.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		keep, err := f.cond(b)
		if err != nil {
			return nil, err
		}
		//jsqlint:ignore memcharge the selection buffer is overwritten per batch, never accumulated: it holds one batch's row indices, which the batch-lifetime contract bounds
		f.sel = appendTruthy(f.sel[:0], b, keep)
		if len(f.sel) == 0 {
			continue
		}
		return b.WithSel(f.sel), nil
	}
}

func (f *filterIter) Close() { f.in.Close() }

// colRefIndexes maps each projection expression to its input-schema column
// index when it is a plain column reference (resolvable via Lookup exactly
// as compileVec resolves it), or -1 for computed expressions. Pass-through
// columns skip evaluation entirely: the input representation — variant
// vector or typed view — carries over into the output batch unchanged.
func colRefIndexes(sc *Schema, exprs []sqlast.Expr) []int {
	idx := make([]int, len(exprs))
	for i, e := range exprs {
		idx[i] = -1
		if cr, ok := e.(*sqlast.ColRef); ok {
			name := cr.Name
			if cr.Table != "" {
				name = cr.Table + "." + cr.Name
			}
			if j, ok := sc.Lookup(name); ok {
				idx[i] = j
			}
		}
	}
	return idx
}

type projectIter struct {
	in    batchIter
	fns   []vecFn
	alias []int // input column index for pass-through, -1 for computed
}

// NextBatch emits the computed columns as the kernels' own output vectors,
// without a copy: a kernel overwrites its vector only on its next call,
// which is this operator's next NextBatch — exactly when the emitted batch
// expires under the batch-lifetime contract (DESIGN.md §6).
func (p *projectIter) NextBatch() (*vector.Batch, error) {
	b, err := p.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	cols := make([][]variant.Value, len(p.fns))
	var typed []*vector.TypedCol
	for i, fn := range p.fns {
		if src := p.alias[i]; src >= 0 {
			// Pass-through: alias the input column's representation. A typed
			// view stays typed, so downstream kernels keep the fast path
			// without a variant conversion.
			cols[i] = b.Cols[src]
			if cols[i] == nil {
				if tc := b.TypedCol(src); tc != nil {
					if typed == nil {
						typed = make([]*vector.TypedCol, len(p.fns))
					}
					typed[i] = tc
				}
			}
			continue
		}
		if cols[i], err = fn(b); err != nil {
			return nil, err
		}
	}
	// The projected vectors are aligned with the input's physical rows, so
	// the selection carries over unchanged.
	//jsqlint:ignore kernelalias batch-lifetime contract: computed columns are the kernels' output vectors, overwritten only by this operator's next NextBatch, when the emitted batch expires; consumers that keep rows longer (the sort) copy them on arrival
	return &vector.Batch{Cols: cols, Sel: b.Sel, Typed: typed}, nil
}

func (p *projectIter) Close() { p.in.Close() }

// flattenIter expands every active input row into one output row per
// element of its array (LATERAL FLATTEN), appending VALUE and INDEX; an
// OUTER flatten keeps a row without elements once, with NULL/NULL. Output is
// built column-wise: each gather plans the parent row, element and INDEX of
// up to a batch of output rows, then copies the input columns over those
// parents into output vectors the operator owns and reuses. Every buffer is
// bounded by one batch and reused, so the steady state allocates per batch,
// never per row. Output batches hold batchSize rows across input-batch
// boundaries; each one is valid until the next NextBatch (DESIGN.md §6).
type flattenIter struct {
	in    batchIter
	input vecFn
	outer bool
	width int // input width; output adds VALUE and INDEX
	size  int

	// cur is the input batch being expanded: rows lists the active rows
	// that produce output and arrs their flattened values. Expansion
	// resumes at rows[row], element elem. cur stays valid meanwhile: the
	// input is asked for its next batch only once rows are used up.
	cur     *vector.Batch
	rows    []int
	arrs    []variant.Value
	row     int
	elem    int
	inDone  bool
	parents []int             // parent row of each output row of one gather
	out     [][]variant.Value // width+2 reused output vectors
}

// newFlattenIter is the one constructor of the flatten operator, shared by
// the streaming pipeline, the parallel aggregate's worker chains and view
// refresh.
func newFlattenIter(in batchIter, input vecFn, outer bool, width, batchSize int) *flattenIter {
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	return &flattenIter{
		in: in, input: input, outer: outer, width: width, size: batchSize,
		out: make([][]variant.Value, width+2),
	}
}

func (f *flattenIter) NextBatch() (*vector.Batch, error) {
	for c := range f.out {
		f.out[c] = f.out[c][:0]
	}
	n := 0
	for n < f.size {
		if f.row == len(f.rows) {
			if f.inDone {
				break
			}
			if err := f.expand(); err != nil {
				return nil, err
			}
			continue
		}
		f.plan(f.size - n)
		for c := 0; c < f.width; c++ {
			f.out[c] = f.cur.Gather(c, f.parents, f.out[c])
		}
		n += len(f.parents)
	}
	if n == 0 {
		return nil, nil
	}
	return &vector.Batch{Cols: f.out}, nil
}

// plan fills parents with up to room output rows of cur, appending their
// VALUE and INDEX to the output vectors.
func (f *flattenIter) plan(room int) {
	f.parents = f.parents[:0]
	vals, index := f.out[f.width], f.out[f.width+1]
	for f.row < len(f.rows) && len(f.parents) < room {
		i := f.rows[f.row]
		elems := f.arrs[f.row].AsArray()
		if len(elems) == 0 { // an OUTER flatten's row without elements
			f.parents = append(f.parents, i)
			vals = append(vals, variant.Null)
			index = append(index, variant.Null)
			f.row++
			continue
		}
		end := min(len(elems), f.elem+room-len(f.parents))
		for k := f.elem; k < end; k++ {
			f.parents = append(f.parents, i)
			vals = append(vals, elems[k])
			index = append(index, variant.Int(int64(k)))
		}
		f.elem = end
		if end == len(elems) {
			f.row, f.elem = f.row+1, 0
		}
	}
	f.out[f.width], f.out[f.width+1] = vals, index
}

// expand pulls the next input batch and lists its rows that produce output.
func (f *flattenIter) expand() error {
	f.rows, f.arrs, f.row, f.elem = f.rows[:0], f.arrs[:0], 0, 0
	b, err := f.in.NextBatch()
	if err != nil {
		return err
	}
	f.cur = b
	if b == nil {
		f.inDone = true
		return nil
	}
	vals, err := f.input(b)
	if err != nil {
		return err
	}
	b.ForEach(func(i int) {
		v := vals[i]
		if v.Kind() != variant.KindArray || v.Len() == 0 {
			if !f.outer {
				return
			}
			v = variant.Null
		}
		f.rows = append(f.rows, i)
		f.arrs = append(f.arrs, v)
	})
	return nil
}

func (f *flattenIter) Close() { f.in.Close() }

// --- aggregation --------------------------------------------------------------

// rowsIter emits pre-materialized rows as dense batches (aggregate and sort
// outputs).
type rowsIter struct {
	rows  [][]variant.Value
	width int
	size  int
	pos   int
}

func (r *rowsIter) NextBatch() (*vector.Batch, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	hi := r.pos + r.size
	if hi > len(r.rows) {
		hi = len(r.rows)
	}
	b := vector.ColumnizeRows(r.rows, r.width, r.pos, hi)
	r.pos = hi
	return b, nil
}

func (r *rowsIter) Close() {}

// compiledAgg is one aggregate's compiled evaluation functions.
type compiledAgg struct {
	spec     AggSpec
	arg      vecFn // nil for COUNT(*)
	orderFns []vecFn
	descs    []bool
}

// aggEval holds the compiled grouping and aggregate expressions of one
// aggregation. Compiled expressions may hold state (reusable output
// buffers, SEQ counters), so an aggEval must only ever be used by one
// goroutine — the parallel aggregate compiles one per worker.
type aggEval struct {
	groupFns []vecFn
	aggs     []compiledAgg
}

// compileAggEval compiles an aggregate's expressions against its input
// schema.
func compileAggEval(ctx *execContext, x *AggregateNode) (*aggEval, error) {
	inSchema := x.Input.Schema()
	groupFns, err := compileVecs(ctx, inSchema, x.GroupBy)
	if err != nil {
		return nil, err
	}
	aggs := make([]compiledAgg, len(x.Aggs))
	for i, spec := range x.Aggs {
		ca := compiledAgg{spec: spec}
		if spec.Arg != nil {
			fn, err := compileVec(ctx, inSchema, spec.Arg)
			if err != nil {
				return nil, err
			}
			ca.arg = fn
		}
		for _, o := range spec.OrderBy {
			fn, err := compileVec(ctx, inSchema, o.Expr)
			if err != nil {
				return nil, err
			}
			ca.orderFns = append(ca.orderFns, fn)
			ca.descs = append(ca.descs, o.Desc)
		}
		aggs[i] = ca
	}
	return &aggEval{groupFns: groupFns, aggs: aggs}, nil
}

// aggGroup is one group's accumulated state.
type aggGroup struct {
	key  string // canonical binary group key (retained for the merge map)
	keys []variant.Value
	accs []accumulator
	// seq is the group's insertion rank within its table; bucket its merge
	// partition. Together with the table's storage-partition index they form
	// the stamp that reproduces sequential first-seen output order after a
	// parallel merge.
	seq    int32
	bucket int32
	stamp  int64
}

// aggTable is one hash-aggregation table keyed by the canonical binary
// group key. Lookups reuse keyBuf and only allocate the key string on first
// insertion, so steady-state grouping is allocation-free per row.
type aggTable struct {
	aggs     []compiledAgg
	buckets  int // > 1: thread-local mode, groups also index into byBucket
	groups   map[string]*aggGroup
	order    []*aggGroup   // insertion order
	byBucket [][]*aggGroup // per merge partition, insertion order
	keyBuf   []byte
	rows     int64 // input rows folded (parallel-phase accounting)
}

func newAggTable(aggs []compiledAgg, buckets int) *aggTable {
	t := &aggTable{aggs: aggs, buckets: buckets, groups: make(map[string]*aggGroup)}
	if buckets > 1 {
		t.byBucket = make([][]*aggGroup, buckets)
	}
	return t
}

func (t *aggTable) insert(keyBytes []byte, keys []variant.Value) *aggGroup {
	g := &aggGroup{key: string(keyBytes), keys: keys, accs: make([]accumulator, len(t.aggs))}
	for i := range t.aggs {
		g.accs[i] = newAccumulator(t.aggs[i].spec)
	}
	g.seq = int32(len(t.order))
	t.groups[g.key] = g
	t.order = append(t.order, g)
	if t.buckets > 1 {
		g.bucket = bucketOfKey(keyBytes, t.buckets)
		t.byBucket[g.bucket] = append(t.byBucket[g.bucket], g)
	}
	return g
}

// absorb folds one batch into the table: group keys, aggregate arguments
// and order keys evaluate once per batch, then fold row-wise into the
// accumulators.
func (e *aggEval) absorb(t *aggTable, b *vector.Batch) error {
	gvals, avals, ovals, err := e.evalBatch(b)
	if err != nil {
		return err
	}
	rowG := make([]variant.Value, len(e.groupFns))
	rowA := make([]variant.Value, len(e.aggs))
	rowO := make([][]variant.Value, len(e.aggs))
	var rowErr error
	b.ForEach(func(i int) {
		if rowErr != nil {
			return
		}
		for k := range e.groupFns {
			rowG[k] = gvals[k][i]
		}
		for a := range e.aggs {
			var v variant.Value
			if avals[a] != nil {
				v = avals[a][i]
			}
			rowA[a] = v
			rowO[a] = nil
			if ovals[a] != nil {
				// Freshly allocated per row: ARRAY_AGG retains the slice.
				ord := make([]variant.Value, len(ovals[a]))
				for j := range ovals[a] {
					ord[j] = ovals[a][j][i]
				}
				rowO[a] = ord
			}
		}
		rowErr = e.foldRow(t, rowG, rowA, rowO)
	})
	return rowErr
}

// foldRow folds one row's evaluated values into the table. It is the shared
// per-row body of the streaming absorb and the spill-replay path, so both
// issue the identical insert/add sequence — the replay of deferred tuples
// reproduces the in-memory fold bit for bit.
func (e *aggEval) foldRow(t *aggTable, gv, av []variant.Value, ov [][]variant.Value) error {
	t.rows++
	t.keyBuf = t.keyBuf[:0]
	for k := range gv {
		t.keyBuf = gv[k].AppendGroupKey(t.keyBuf)
	}
	g, ok := t.groups[string(t.keyBuf)]
	if !ok {
		var keys []variant.Value
		if len(gv) > 0 {
			keys = append([]variant.Value(nil), gv...)
		}
		g = t.insert(t.keyBuf, keys)
	}
	for a := range g.accs {
		if err := g.accs[a].add(av[a], ov[a]); err != nil {
			return err
		}
	}
	return nil
}

// emitGroupRows finalizes a list of groups into output rows.
func emitGroupRows(groups []*aggGroup, aggs []compiledAgg) [][]variant.Value {
	out := make([][]variant.Value, 0, len(groups))
	for _, g := range groups {
		row := make([]variant.Value, 0, len(g.keys)+len(g.accs))
		row = append(row, g.keys...)
		for i, acc := range g.accs {
			row = append(row, acc.result(aggs[i].descs))
		}
		out = append(out, row)
	}
	return out
}

func prepareAggregate(x *AggregateNode, ctx *execContext) (batchIter, error) {
	in, err := prepare(x.Input, ctx)
	if err != nil {
		return nil, err
	}
	eval, err := compileAggEval(ctx, x)
	if err != nil {
		in.Close()
		return nil, err
	}
	width := len(x.Schema().Names)

	mergeable := aggsMergeable(x.Aggs)

	run := func() ([][]variant.Value, error) {
		defer in.Close()
		mem := ctx.opMemFor(x, ctx.statsFor(x))
		ext := &extAgg{mem: mem, mergeable: mergeable, eval: eval}
		defer ext.discard()
		table := newAggTable(eval.aggs, 1)
		for {
			b, err := in.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if ext.deferring() {
				if err := ext.deferBatch(b); err != nil {
					return nil, err
				}
				continue
			}
			if err := eval.absorb(table, b); err != nil {
				return nil, err
			}
			if mem.enabled() && mem.charge(activeRowsBytes(b)) {
				if table, err = ext.overflow(table); err != nil {
					return nil, err
				}
			}
		}
		groups, err := ext.finish(table)
		if err != nil {
			return nil, err
		}
		// Global aggregation over an empty input yields one row. (An empty
		// input never spills, so the fresh insert covers the external path.)
		if len(eval.groupFns) == 0 && len(groups) == 0 {
			table.insert(nil, nil)
			groups = table.order
		}
		return emitGroupRows(groups, eval.aggs), nil
	}

	return &aggIter{run: run, in: in, width: width, bsize: ctx.batchSize}, nil
}

// aggIter materializes its groups on first NextBatch. run closes the input
// as soon as materialization finishes (success or error), releasing morsel
// scan workers promptly; the iterator drops its reference so consumer Close
// does not touch the input again.
type aggIter struct {
	run   func() ([][]variant.Value, error)
	in    batchIter
	width int
	bsize int
	out   *rowsIter
}

func (a *aggIter) NextBatch() (*vector.Batch, error) {
	if a.out == nil {
		rows, err := a.run()
		a.in = nil // run closed it
		if err != nil {
			return nil, err
		}
		a.out = &rowsIter{rows: rows, width: a.width, size: a.bsize}
	}
	return a.out.NextBatch()
}

func (a *aggIter) Close() {
	if a.in != nil {
		a.in.Close()
		a.in = nil
	}
}

// --- joins -------------------------------------------------------------------

// prepareJoin builds a hash join. buildWorkers > 1 (the ParallelJoinNode
// path) partitions the build side across workers; statNode names the plan
// node whose stats slot receives the build-phase accounting.
func prepareJoin(x *JoinNode, ctx *execContext, buildWorkers int, statNode Node) (batchIter, error) {
	left, err := prepare(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := prepare(x.Right, ctx)
	if err != nil {
		left.Close()
		return nil, err
	}
	// Both children are live from here on; every compile failure below must
	// release them before bailing out.
	fail := func(err error) (batchIter, error) {
		left.Close()
		right.Close()
		return nil, err
	}
	combined := x.Schema()
	var residual evalFn
	if x.Residual != nil {
		residual, err = compileExpr(combined, x.Residual)
		if err != nil {
			return fail(err)
		}
	}
	var onFn evalFn
	if x.On != nil {
		onFn, err = compileExpr(combined, x.On)
		if err != nil {
			return fail(err)
		}
	}
	// Probe keys evaluate vectorized over the streamed left batches; build
	// keys evaluate row-wise over the materialized right side.
	leftKeys := make([]vecFn, len(x.LeftKeys))
	for i, k := range x.LeftKeys {
		leftKeys[i], err = compileVec(ctx, x.Left.Schema(), k)
		if err != nil {
			return fail(err)
		}
	}
	rightKeys := make([]evalFn, len(x.RightKeys))
	for i, k := range x.RightKeys {
		rightKeys[i], err = compileExpr(x.Right.Schema(), k)
		if err != nil {
			return fail(err)
		}
	}
	leftWidth := len(x.Left.Schema().Names)
	rightWidth := len(x.Right.Schema().Names)
	st := ctx.statsFor(statNode)
	return &joinIter{
		kind: x.Kind, left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		rightKeyExprs: x.RightKeys, rightSchema: x.Right.Schema(),
		residual: residual, on: onFn,
		leftWidth: leftWidth, rightWidth: rightWidth,
		buildWorkers: buildWorkers, st: st,
		ectx: ctx, mem: ctx.opMemFor(statNode, st),
		bld: vector.NewBuilder(leftWidth+rightWidth, ctx.batchSize),
	}, nil
}

// buildList is one join key's build rows in input order. Entries are held
// by pointer so appending to a hot key never re-allocates its map key. When
// the build side spilled, offs holds the rows' spill-file offsets instead.
type buildList struct {
	rows [][]variant.Value
	offs []int64
}

type joinIter struct {
	kind          string
	left          batchIter
	right         batchIter
	leftKeys      []vecFn
	rightKeys     []evalFn
	rightKeyExprs []sqlast.Expr // recompiled per build worker
	rightSchema   *Schema
	residual      evalFn
	on            evalFn
	leftWidth     int
	rightWidth    int
	buildWorkers  int
	st            *OpStats
	ectx          *execContext
	mem           *opMem
	bld           *vector.Builder

	built     bool
	parts     []map[string]*buildList // disjoint hash partitions of the build side
	rightRows [][]variant.Value       // CROSS mode
	spillRun  *storage.SpillRun       // non-nil once the build side spilled
	buildRows int64
	keyBuf    []byte
	inDone    bool
}

// build drains and closes the build side, then constructs the partitioned
// hash table — in parallel when the join was physicalized with build
// workers and the build side is large enough to amortize them. The build
// side is closed exactly once here (and nilled so Close stays idempotent).
func (j *joinIter) build() error {
	rows, err := j.drainBuild()
	j.right.Close()
	j.right = nil
	if err != nil {
		return err
	}
	switch {
	case len(j.rightKeys) == 0:
		j.rightRows = rows
	case j.spillRun != nil:
		// The offset index was built incrementally during the spilling drain.
		if j.st != nil {
			j.st.Pipelines = 1
			j.st.MergeParts = 1
			j.st.LocalRows = j.buildRows
			j.st.MergedGroups = int64(len(j.parts[0]))
		}
	case j.buildWorkers > 1 && len(rows) >= minParallelBuildRows:
		if err := j.buildParallel(rows); err != nil {
			return err
		}
	default:
		if err := j.buildSequential(rows); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

// drainBuild materializes the build side under the memory budget. Once the
// budget trips (and the join is keyed), the drain switches to spilling:
// every surviving build row goes to an offset-indexed run and the hash index
// maps key bytes to file offsets, appended in input order — exactly the
// candidate order buildSequential produces in memory. CROSS joins have no
// key to index by and always stay in memory.
func (j *joinIter) drainBuild() ([][]variant.Value, error) {
	var rows [][]variant.Value
	var w *storage.RunWriter
	var enc []byte
	for {
		b, err := j.right.NextBatch()
		if err != nil {
			if w != nil {
				w.Abort()
			}
			return nil, err
		}
		if b == nil {
			break
		}
		if w == nil {
			rows = b.AppendRows(rows)
			// Charge unconditionally so CROSS builds count against the budget
			// and show up in MemPeakBytes; only keyed joins can act on the
			// overflow by spilling (a CROSS join has no key to index runs by).
			over := j.mem.enabled() && j.mem.charge(activeRowsBytes(b))
			if over && len(j.rightKeys) > 0 {
				if w, err = j.startBuildSpill(rows); err != nil {
					return nil, err
				}
				rows = nil
				j.mem.releaseAll()
			}
			continue
		}
		var rowBuf []variant.Value
		var rowErr error
		b.ForEach(func(i int) {
			if rowErr != nil {
				return
			}
			rowBuf = b.Row(i, rowBuf)
			rowErr = j.spillBuildRow(w, rowBuf, &enc)
		})
		if rowErr != nil {
			w.Abort()
			return nil, rowErr
		}
	}
	if w != nil {
		run, err := w.Finish()
		if err != nil {
			return nil, err
		}
		j.spillRun = run
		j.mem.noteSpill(run.Bytes())
	}
	return rows, nil
}

// startBuildSpill opens the build spill run and replays the rows drained so
// far through the same per-row path the rest of the stream will take, so the
// file and index hold the full build side in input order.
func (j *joinIter) startBuildSpill(rows [][]variant.Value) (*storage.RunWriter, error) {
	w, err := storage.NewRunWriter("join")
	if err != nil {
		return nil, err
	}
	j.parts = []map[string]*buildList{make(map[string]*buildList)}
	var enc []byte
	for _, row := range rows {
		if err := j.spillBuildRow(w, row, &enc); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w, nil
}

// spillBuildRow indexes and writes one build row. NULL-key rows are dropped
// entirely — they can never match an equi-join probe, exactly as
// buildSequential skips them.
func (j *joinIter) spillBuildRow(w *storage.RunWriter, row []variant.Value, enc *[]byte) error {
	j.buildRows++
	j.keyBuf = j.keyBuf[:0]
	for _, fn := range j.rightKeys {
		v, err := fn(row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		j.keyBuf = v.AppendGroupKey(j.keyBuf)
	}
	*enc = encodeRowValues((*enc)[:0], row)
	off, err := w.WriteRecord(*enc)
	if err != nil {
		return err
	}
	m := j.parts[0]
	e, ok := m[string(j.keyBuf)]
	if !ok {
		e = &buildList{}
		m[string(j.keyBuf)] = e
	}
	e.offs = append(e.offs, off)
	return nil
}

// fetchSpilled materializes one candidate list from the build spill file, in
// the stored (input) order.
func (j *joinIter) fetchSpilled(offs []int64) ([][]variant.Value, error) {
	rows := make([][]variant.Value, len(offs))
	for i, off := range offs {
		rec, err := j.spillRun.ReadRecordAt(off)
		if err != nil {
			return nil, err
		}
		row, err := decodeRowValues(rec, j.rightWidth)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

func (j *joinIter) buildSequential(rows [][]variant.Value) error {
	m := make(map[string]*buildList)
	j.parts = []map[string]*buildList{m}
	var kb []byte
	for _, row := range rows {
		kb = kb[:0]
		skip := false
		for _, fn := range j.rightKeys {
			v, err := fn(row)
			if err != nil {
				return err
			}
			if v.IsNull() {
				skip = true // NULL keys never match in equi-joins
				break
			}
			kb = v.AppendGroupKey(kb)
		}
		if skip {
			continue
		}
		e, ok := m[string(kb)]
		if !ok {
			e = &buildList{}
			m[string(kb)] = e
		}
		e.rows = append(e.rows, row)
	}
	if j.st != nil {
		j.st.Pipelines = 1
		j.st.MergeParts = 1
		j.st.LocalRows = int64(len(rows))
		j.st.MergedGroups = int64(len(m))
	}
	return nil
}

func (j *joinIter) NextBatch() (*vector.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if b := j.bld.Pop(); b != nil {
			return b, nil
		}
		if j.inDone {
			return j.bld.Flush(), nil
		}
		b, err := j.left.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.inDone = true
			continue
		}
		if err := j.probeBatch(b); err != nil {
			return nil, err
		}
	}
}

// probeBatch joins every active left row of one batch against the built
// right side, appending output rows to the builder. Probing is lock-free:
// the partitioned tables are read-only after build.
func (j *joinIter) probeBatch(b *vector.Batch) error {
	var kcols [][]variant.Value
	if j.parts != nil {
		kcols = make([][]variant.Value, len(j.leftKeys))
		for i, fn := range j.leftKeys {
			vals, err := fn(b)
			if err != nil {
				return err
			}
			kcols[i] = vals
		}
	}
	combined := make([]variant.Value, j.leftWidth+j.rightWidth)
	var rowErr error
	b.ForEach(func(i int) {
		if rowErr != nil {
			return
		}
		candidates := j.rightRows
		if j.parts != nil {
			j.keyBuf = j.keyBuf[:0]
			nullKey := false
			for k := range kcols {
				v := kcols[k][i]
				if v.IsNull() {
					nullKey = true
					break
				}
				j.keyBuf = v.AppendGroupKey(j.keyBuf)
			}
			candidates = nil
			if !nullKey {
				m := j.parts[bucketOfKey(j.keyBuf, len(j.parts))]
				if e, ok := m[string(j.keyBuf)]; ok {
					if j.spillRun != nil {
						candidates, rowErr = j.fetchSpilled(e.offs)
						if rowErr != nil {
							return
						}
					} else {
						candidates = e.rows
					}
				}
			}
		}
		for c := range b.Cols {
			combined[c] = b.Value(c, i)
		}
		emitted := false
		for _, rightRow := range candidates {
			copy(combined[j.leftWidth:], rightRow)
			ok, err := j.matches(combined)
			if err != nil {
				rowErr = err
				return
			}
			if ok {
				emitted = true
				j.bld.Append(append([]variant.Value(nil), combined...))
			}
		}
		if !emitted && j.kind == "LEFT OUTER" {
			for c := j.leftWidth; c < len(combined); c++ {
				combined[c] = variant.Null
			}
			j.bld.Append(append([]variant.Value(nil), combined...))
		}
	})
	return rowErr
}

func (j *joinIter) matches(combined []variant.Value) (bool, error) {
	for _, cond := range []evalFn{j.residual, j.on} {
		if cond == nil {
			continue
		}
		v, err := cond(combined)
		if err != nil {
			return false, err
		}
		if v.IsNull() || !truthySQL(v) {
			return false, nil
		}
	}
	return true, nil
}

// Close is idempotent: build already closed (and nilled) the right side, so
// closing a drained join must not touch it again — see the execclose lint
// fixture's earlyCloser pattern and TestJoinCloseIdempotent.
func (j *joinIter) Close() {
	if j.left != nil {
		j.left.Close()
		j.left = nil
	}
	if j.right != nil {
		j.right.Close()
		j.right = nil
	}
	j.spillRun.Close()
	if j.mem != nil {
		j.mem.releaseAll()
	}
}

// --- sort / limit / union -----------------------------------------------------

// prepareSort builds a sort. workers > 1 (the ParallelSortNode path) sorts
// per-worker runs merged stably; statNode receives the phase accounting.
func prepareSort(x *SortNode, ctx *execContext, workers int, statNode Node) (batchIter, error) {
	in, err := prepare(x.Input, ctx)
	if err != nil {
		return nil, err
	}
	keys := make([]vecFn, len(x.Keys))
	descs := make([]bool, len(x.Keys))
	for i, k := range x.Keys {
		fn, err := compileVec(ctx, x.Input.Schema(), k.Expr)
		if err != nil {
			in.Close()
			return nil, err
		}
		keys[i] = fn
		descs[i] = k.Desc
	}
	st := ctx.statsFor(statNode)
	return &sortIter{
		in: in, keys: keys, descs: descs,
		width: len(x.Input.Schema().Names), bsize: ctx.batchSize,
		workers: workers, st: st, ectx: ctx, mem: ctx.opMemFor(statNode, st),
	}, nil
}

type sortIter struct {
	in      batchIter
	keys    []vecFn
	descs   []bool
	width   int
	bsize   int
	workers int
	st      *OpStats
	ectx    *execContext
	mem     *opMem
	runs    []*storage.SpillRun // sorted on-disk chunks, in input order
	out     batchIter
}

func (s *sortIter) NextBatch() (*vector.Batch, error) {
	if s.out == nil {
		err := s.materialize()
		s.in = nil // materialize closed it
		if err != nil {
			return nil, err
		}
	}
	return s.out.NextBatch()
}

// sortRef addresses one kept row: index of the compacted batch + row
// within it.
type sortRef struct{ b, i int }

// materialize drains the input (closing it as soon as the drain finishes,
// so morsel scan workers release promptly), evaluates the sort keys
// batch-wise, and stably sorts the global row index — ties keep their input
// order even when the rows arrived from a parallel scan's ordered merge.
// With workers > 1 the comparison sort fans out into per-worker runs joined
// by a stability-preserving multiway merge; key evaluation stays sequential
// in input order either way.
//
// Under a memory limit the buffered chunk spills: it is stably sorted and
// written (rows plus their already-evaluated keys — stateful key expressions
// must evaluate exactly once, in input order) as one on-disk run. Runs are
// consecutive input chunks, so the final earliest-run-tiebreak k-way merge
// equals the global stable sort byte for byte.
func (s *sortIter) materialize() error {
	defer s.in.Close()
	var batches []*vector.Batch
	var keyCols [][][]variant.Value // [batch][key] -> physical-aligned values
	var refs []sortRef
	// less is pure (reads only the detached key vectors), so parallel run
	// sorting shares it safely across workers.
	less := func(ra, rb sortRef) bool {
		for k := range s.keys {
			c := variant.Compare(keyCols[ra.b][k][ra.i], keyCols[rb.b][k][rb.i])
			if s.descs[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
	sortChunk := func() error {
		if s.workers > 1 && len(refs) >= minParallelSortRows {
			var err error
			refs, err = parallelSortRefs(s.ectx, refs, less, s.workers, s.st)
			return err
		}
		sort.SliceStable(refs, func(a, b int) bool { return less(refs[a], refs[b]) })
		return nil
	}
	flushRun := func() error {
		if err := sortChunk(); err != nil {
			return err
		}
		run, err := writeSortRun(batches, keyCols, refs, s.width)
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		s.mem.noteSpill(run.Bytes())
		s.mem.releaseAll()
		batches, keyCols, refs = nil, nil, nil
		return nil
	}
	for {
		b, err := s.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// The sort is the one operator that keeps its input past the
		// producer's next NextBatch, so it copies what it keeps on arrival:
		// the active rows, densely, and their key values out of the kernels'
		// reusable buffers.
		sel := b.ActiveSel()
		kc := make([][]variant.Value, len(s.keys))
		for k, fn := range s.keys {
			vals, err := fn(b)
			if err != nil {
				return err
			}
			kc[k] = make([]variant.Value, len(sel))
			for n, i := range sel {
				kc[k][n] = vals[i]
			}
		}
		bi := len(batches)
		batches = append(batches, b.Compact())
		keyCols = append(keyCols, kc)
		for i := range sel {
			refs = append(refs, sortRef{b: bi, i: i})
		}
		if s.mem.enabled() && s.mem.charge(activeRowsBytes(b)) {
			if err := flushRun(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		if err := sortChunk(); err != nil {
			return err
		}
		rows := make([][]variant.Value, len(refs))
		for n, r := range refs {
			row := make([]variant.Value, s.width)
			for c := 0; c < s.width; c++ {
				row[c] = batches[r.b].Value(c, r.i)
			}
			rows[n] = row
		}
		s.out = &rowsIter{rows: rows, width: s.width, size: s.bsize}
		return nil
	}
	if len(refs) > 0 {
		if err := flushRun(); err != nil {
			return err
		}
	}
	s.out = newSortRunMerge(s.runs, s.descs, s.width, s.bsize)
	return nil
}

func (s *sortIter) Close() {
	if s.in != nil {
		s.in.Close()
		s.in = nil
	}
	if s.out != nil {
		s.out.Close()
	}
	for _, r := range s.runs {
		r.Close()
	}
	s.runs = nil
	if s.mem != nil {
		s.mem.releaseAll()
	}
}

type limitIter struct {
	in        batchIter
	remaining int64
}

func (l *limitIter) NextBatch() (*vector.Batch, error) {
	if l.remaining <= 0 {
		return nil, nil
	}
	b, err := l.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	n := int64(b.NumRows())
	if n > l.remaining {
		b.Truncate(int(l.remaining))
		n = l.remaining
	}
	l.remaining -= n
	return b, nil
}

func (l *limitIter) Close() { l.in.Close() }

type unionIter struct {
	iters []batchIter
	idx   int
}

func (u *unionIter) NextBatch() (*vector.Batch, error) {
	for u.idx < len(u.iters) {
		b, err := u.iters[u.idx].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.idx++
	}
	return nil, nil
}

func (u *unionIter) Close() {
	for _, it := range u.iters {
		it.Close()
	}
}
