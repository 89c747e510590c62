package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Parallel pipeline breakers. The morsel-driven scan of PR 2 parallelizes
// the streaming half of a pipeline; this file parallelizes the blocking
// half — the hash-aggregation build, the hash-join build and the sort —
// while keeping every output byte identical to the sequential operators.
// The ordering argument each one rests on is spelled out at its
// implementation; physical.go decides which plans qualify, planck.go
// certifies the contracts.

// Minimum input sizes below which the parallel phases fall back to the
// sequential code path: worker startup and merge bookkeeping cost more than
// they save on small inputs.
const (
	minParallelBuildRows = 256
	minParallelSortRows  = 1024
)

// aggSpanFanout is the number of phase-1 claims per aggregation worker. Each
// claim is a contiguous span of storage partitions sharing one local table:
// contiguity keeps the ordering proof (span-index order = input row order),
// while spanning several partitions amortizes the per-table group-insert
// cost — one table per storage partition degenerates into insert-per-row
// whenever partitions hold fewer rows than the group cardinality. A few
// spans per worker keeps claims balanced without shrinking the tables much.
const aggSpanFanout = 2

// bucketOfKey hashes a canonical binary group key onto one of parts
// disjoint merge partitions (FNV-1a).
func bucketOfKey(key []byte, parts int) int32 {
	if parts <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int32(h % uint64(parts))
}

// bucketGroups returns the table's groups assigned to merge partition b, in
// insertion order. A single-bucket table holds everything in its global
// insertion order.
func (t *aggTable) bucketGroups(b int) []*aggGroup {
	if t.buckets > 1 {
		return t.byBucket[b]
	}
	return t.order
}

// staticBatches replays a pre-materialized batch list; the per-partition
// pipeline chains of the parallel aggregate source from it.
type staticBatches struct {
	batches []*vector.Batch
	pos     int
}

func (s *staticBatches) NextBatch() (*vector.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

func (s *staticBatches) Close() {}

// chainCounts accumulates one operator's row/batch counters inside one
// worker, flushed into the shared stats slot once at worker exit. Wall time
// is deliberately not metered on worker chains: the workers run
// concurrently, so their summed time is not wall time, and the parallel
// operator's own (driver-side) inclusive time already covers the phase.
type chainCounts struct {
	st      *OpStats
	rows    int64
	batches int64
	calls   int64
}

func (c *chainCounts) flush(ctx *execContext) {
	if c == nil || c.st == nil {
		return
	}
	ctx.mu.Lock()
	c.st.RowsOut += c.rows
	c.st.Batches += c.batches
	c.st.Calls += c.calls
	ctx.mu.Unlock()
}

// countIter meters rows/batches/calls into a worker-local chainCounts.
type countIter struct {
	in batchIter
	c  *chainCounts
}

func (ci *countIter) NextBatch() (*vector.Batch, error) {
	b, err := ci.in.NextBatch()
	ci.c.calls++
	if b != nil {
		ci.c.batches++
		ci.c.rows += int64(b.NumRows())
	}
	return b, err
}

func (ci *countIter) Close() { ci.in.Close() }

// --- two-phase partitioned hash aggregation ----------------------------------

// compiledStage is one pipeline stage's compiled expressions, owned by one
// worker (compiled expressions hold state) and shared across that worker's
// partitions.
type compiledStage struct {
	op      string
	filter  *FilterNode
	project *ProjectNode
	flatten *FlattenNode
	cond    vecFn
	fns     []vecFn
	alias   []int
	input   vecFn
	width   int
}

// iter wraps in with the stage's operator.
func (s *compiledStage) iter(in batchIter, batchSize int) batchIter {
	switch {
	case s.filter != nil:
		return &filterIter{in: in, cond: s.cond}
	case s.project != nil:
		return &projectIter{in: in, fns: s.fns, alias: s.alias}
	}
	return newFlattenIter(in, s.input, s.flatten.Outer, s.width, batchSize)
}

// compileStages compiles the Filter/Project/Flatten chain (execution order)
// for one worker.
func compileStages(ctx *execContext, stages []Node) ([]compiledStage, error) {
	out := make([]compiledStage, 0, len(stages))
	for _, n := range stages {
		op, _ := describeNode(n)
		switch x := n.(type) {
		case *FilterNode:
			cond, err := compileVec(ctx, x.Input.Schema(), x.Cond)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{op: op, filter: x, cond: cond})
		case *ProjectNode:
			fns, err := compileVecs(ctx, x.Input.Schema(), x.Exprs)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{op: op, project: x, fns: fns,
				alias: colRefIndexes(x.Input.Schema(), x.Exprs)})
		case *FlattenNode:
			input, err := compileVec(ctx, x.Input.Schema(), x.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{
				op: op, flatten: x, input: input,
				width: len(x.Input.Schema().Names),
			})
		default:
			return nil, fmt.Errorf("engine: node %T cannot run in a parallel aggregation pipeline", n)
		}
	}
	return out, nil
}

// prepareParallelAgg builds the two-phase partitioned hash aggregation.
// Compilation of every expression in the subtree happens here once so
// compile errors still surface at Prepare time; the workers recompile their
// own copies at run time (compiled expressions hold state).
func prepareParallelAgg(x *ParallelAggNode, ctx *execContext) (batchIter, error) {
	scan, stages, ok := pipelineStages(x.Input)
	if !ok {
		return nil, fmt.Errorf("engine: parallel aggregate over a non-pipelineable input (physicalize bug)")
	}
	colIdx := make([]int, len(scan.Columns))
	for i, c := range scan.Columns {
		idx := scan.Table.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", scan.Table.Name, c)
		}
		colIdx[i] = idx
	}
	if scan.Filter != nil {
		if _, err := compileVec(ctx, scan.Schema(), scan.Filter); err != nil {
			return nil, err
		}
	}
	if _, err := compileStages(ctx, stages); err != nil {
		return nil, err
	}
	eval, err := compileAggEval(ctx, x.AggregateNode)
	if err != nil {
		return nil, err
	}
	return &paggIter{
		node: x, scan: scan, stages: stages, ctx: ctx,
		st: ctx.statsFor(x), eval: eval, colIdx: colIdx,
		width: len(x.Schema().Names),
		parts: ctx.pinSnapshot(scan.Table).Parts,
	}, nil
}

// paggIter runs the aggregation on first NextBatch:
//
//	phase 1 (local): workers claim contiguous spans of storage partitions
//	from an atomic counter, replay the stateless Filter/Project/Flatten
//	chain over each partition in ascending order, and fold the rows into a
//	span-local aggTable whose groups are also bucketed into MergeParts
//	disjoint hash partitions.
//
//	phase 2 (merge): workers claim hash buckets; within a bucket the local
//	tables fold together in span index order, which equals input row order
//	(spans are disjoint ascending partition ranges) — so MIN/MAX/COUNT
//	partials combine exactly, ARRAY_AGG partials concatenate in input
//	order, DISTINCT dedup sees first occurrences first, and ANY_VALUE
//	adopts the earliest span's value. The first table that carries a group
//	stamps it with (span index << 32 | local insertion seq); sorting the
//	merged groups by stamp is exactly the sequential first-seen output
//	order.
//
// Both phases run synchronously inside NextBatch and join their workers
// before returning, so Close has nothing to interrupt.
type paggIter struct {
	node   *ParallelAggNode
	scan   *ScanNode
	stages []Node
	ctx    *execContext
	st     *OpStats
	eval   *aggEval // driver-side copy (empty-input fallback only)
	colIdx []int
	width  int
	// parts is the table's partition set pinned at bind time (the query's
	// MVCC snapshot); the workers claim spans of it, never re-reading the
	// live table.
	parts []*storage.Partition
	out   *rowsIter
}

func (p *paggIter) NextBatch() (*vector.Batch, error) {
	if p.out == nil {
		rows, err := p.run()
		if err != nil {
			return nil, err
		}
		p.out = &rowsIter{rows: rows, width: p.width, size: p.ctx.batchSize}
	}
	return p.out.NextBatch()
}

func (p *paggIter) Close() {}

func (p *paggIter) run() ([][]variant.Value, error) {
	parts := p.parts
	spanCount := p.node.Pipelines * aggSpanFanout
	if spanCount > len(parts) {
		spanCount = len(parts)
	}
	if spanCount < 1 {
		spanCount = 1
	}
	spans := make([][2]int, 0, spanCount)
	chunk := (len(parts) + spanCount - 1) / spanCount
	for lo := 0; lo < len(parts); lo += chunk {
		hi := lo + chunk
		if hi > len(parts) {
			hi = len(parts)
		}
		spans = append(spans, [2]int{lo, hi})
	}
	workers := p.node.Pipelines
	if workers > len(spans) {
		workers = len(spans)
	}
	if workers < 1 {
		workers = 1
	}
	mergeParts := p.node.MergeParts
	if mergeParts < 1 {
		mergeParts = 1
	}

	// Pre-create every stats slot on the driver: statsFor mutates the stats
	// map and must not race with worker flushes.
	scanSt := p.ctx.statsFor(p.scan)
	stageSts := make([]*OpStats, len(p.stages))
	for i, s := range p.stages {
		stageSts[i] = p.ctx.statsFor(s)
	}
	p.ctx.addScanCounts(scanSt, len(parts), 0, 0)

	locals := make([]*aggTable, len(spans))
	spanRuns := make([][]*storage.SpillRun, len(spans))
	defer func() {
		for _, rs := range spanRuns {
			for _, r := range rs {
				r.Close()
			}
		}
	}()
	workerRows := make([]int64, workers)
	acct := p.ctx.acct
	// Shared operator-level accounting, updated atomically by the workers and
	// copied into the stats slot at the end.
	var opCharged, opPeak, opHeld int64
	var opSpills, opSpillBytes int64
	var spilledRows, spilledGroups int64
	// prog mirrors the held-bytes gauge into the live-progress slot so
	// /debug/queries shows the breaker's current memory while it runs.
	prog := p.ctx.progFor(p.node)
	defer func() {
		held := atomic.LoadInt64(&opHeld)
		acct.release(held)
		prog.addMem(-held)
	}()
	var claim int64
	var stop int32
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		atomic.StoreInt32(&stop, 1)
	}
	// checkCancel lets every worker loop abort within one morsel of a
	// cancelled query context.
	checkCancel := func() bool {
		if err := p.ctx.cancelled(); err != nil {
			fail(err)
			return true
		}
		return false
	}

	localStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Per-worker compilation: compiled expressions hold state
			// (reusable buffers), so nothing compiled is shared across
			// goroutines.
			eval, err := compileAggEval(p.ctx, p.node.AggregateNode)
			if err != nil {
				fail(err)
				return
			}
			var filter vecFn
			if p.scan.Filter != nil {
				filter, err = compileVec(p.ctx, p.scan.Schema(), p.scan.Filter)
				if err != nil {
					fail(err)
					return
				}
			}
			cs, err := compileStages(p.ctx, p.stages)
			if err != nil {
				fail(err)
				return
			}
			counts := p.newChainCounts(scanSt, stageSts)
			defer func() {
				for _, c := range counts {
					c.flush(p.ctx)
				}
			}()
			// spillSpan moves one span table's state to disk mid-stream; the
			// merge phase folds the runs back in (span, run) order.
			spillSpan := func(si int, table *aggTable, spanCharged *int64) (*aggTable, error) {
				run, serr := spillAggTable(table, "pagg")
				if serr != nil {
					return nil, serr
				}
				spanRuns[si] = append(spanRuns[si], run)
				acct.noteSpill(run.Bytes())
				atomic.AddInt64(&opSpills, 1)
				atomic.AddInt64(&opSpillBytes, run.Bytes())
				atomic.AddInt64(&spilledRows, table.rows)
				atomic.AddInt64(&spilledGroups, int64(len(table.order)))
				workerRows[w] += table.rows
				acct.release(*spanCharged)
				atomic.AddInt64(&opHeld, -*spanCharged)
				prog.addMem(-*spanCharged)
				*spanCharged = 0
				return newAggTable(eval.aggs, mergeParts), nil
			}
			for {
				if atomic.LoadInt32(&stop) != 0 || checkCancel() {
					return
				}
				si := int(atomic.AddInt64(&claim, 1) - 1)
				if si >= len(spans) {
					return
				}
				var spanBatches []*vector.Batch
				for i := spans[si][0]; i < spans[si][1]; i++ {
					if atomic.LoadInt32(&stop) != 0 || checkCancel() {
						return
					}
					part := parts[i]
					if partitionPruned(p.scan, part) {
						p.ctx.addScanCounts(scanSt, 0, 1, 0)
						continue
					}
					batches, bytes, err := scanPartition(p.ctx, part, p.colIdx, filter, p.ctx.batchSize)
					p.ctx.addScanCounts(scanSt, 0, 0, bytes)
					if err != nil {
						fail(err)
						return
					}
					spanBatches = append(spanBatches, batches...)
				}
				// One operator chain per span: the batches are already in
				// ascending partition order, so a single replay preserves
				// input row order.
				table := newAggTable(eval.aggs, mergeParts)
				var spanCharged int64
				it := p.instantiate(&staticBatches{batches: spanBatches}, cs, counts)
				for {
					b, berr := it.NextBatch()
					if berr != nil {
						it.Close()
						fail(berr)
						return
					}
					if b == nil {
						break
					}
					if aerr := eval.absorb(table, b); aerr != nil {
						it.Close()
						fail(aerr)
						return
					}
					if acct.enabled() {
						nb := activeRowsBytes(b)
						spanCharged += nb
						atomic.AddInt64(&opHeld, nb)
						prog.addMem(nb)
						cur := atomic.AddInt64(&opCharged, nb)
						for {
							pk := atomic.LoadInt64(&opPeak)
							if cur <= pk || atomic.CompareAndSwapInt64(&opPeak, pk, cur) {
								break
							}
						}
						if acct.charge(nb) {
							var serr error
							table, serr = spillSpan(si, table, &spanCharged)
							if serr != nil {
								it.Close()
								fail(serr)
								return
							}
						}
					}
				}
				it.Close()
				locals[si] = table
				workerRows[w] += table.rows
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	localWall := time.Since(localStart)

	// Compact the phase-1 output into merge sources: for each span, its spill
	// runs in spill (= input) order, then its final live table. Source index
	// order therefore equals input row order, so it serves as the stamp's
	// major key exactly as the table index did before spilling existed.
	type aggSource struct {
		run   *storage.SpillRun
		table *aggTable
	}
	var sources []aggSource
	var localRows, localGroups int64
	for si, t := range locals {
		for _, r := range spanRuns[si] {
			sources = append(sources, aggSource{run: r})
		}
		if t != nil && t.rows > 0 {
			sources = append(sources, aggSource{table: t})
			localRows += t.rows
			localGroups += int64(len(t.order))
		}
	}
	localRows += atomic.LoadInt64(&spilledRows)
	localGroups += atomic.LoadInt64(&spilledGroups)

	mergeStart := time.Now()
	merged := make([][]*aggGroup, mergeParts)
	mergeWorkers := workers
	if mergeWorkers > mergeParts {
		mergeWorkers = mergeParts
	}
	if mergeWorkers < 1 {
		mergeWorkers = 1
	}
	var bclaim int64
	var mwg sync.WaitGroup
	mwg.Add(mergeWorkers)
	for w := 0; w < mergeWorkers; w++ {
		go func() {
			defer mwg.Done()
			for {
				if atomic.LoadInt32(&stop) != 0 || checkCancel() {
					return
				}
				b := int(atomic.AddInt64(&bclaim, 1) - 1)
				if b >= mergeParts {
					return
				}
				seen := make(map[string]*aggGroup)
				var out []*aggGroup
				fold := func(srcIdx int, g *aggGroup) error {
					dst, ok := seen[g.key]
					if !ok {
						g.stamp = int64(srcIdx)<<32 | int64(g.seq)
						seen[g.key] = g
						out = append(out, g)
						return nil
					}
					for a := range dst.accs {
						if err := mergeAccumulators(dst.accs[a], g.accs[a]); err != nil {
							return err
						}
					}
					return nil
				}
				for srcIdx, src := range sources {
					if src.table != nil {
						for _, g := range src.table.bucketGroups(b) {
							if err := fold(srcIdx, g); err != nil {
								fail(err)
								return
							}
						}
						continue
					}
					// Each merge worker opens its own reader: SpillRun reads
					// go through ReadAt and are concurrency-safe.
					rr := src.run.NewReader()
					for {
						if atomic.LoadInt32(&stop) != 0 || checkCancel() {
							return
						}
						rec, err := rr.Next()
						if err != nil {
							fail(err)
							return
						}
						if rec == nil {
							break
						}
						g, err := decodeSpilledGroup(rec, p.eval.aggs, int32(b), mergeParts)
						if err != nil {
							fail(err)
							return
						}
						if g == nil {
							continue // other merge partition
						}
						if err := fold(srcIdx, g); err != nil {
							fail(err)
							return
						}
					}
				}
				merged[b] = out
			}
		}()
	}
	mwg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	total := 0
	for _, g := range merged {
		total += len(g)
	}
	all := make([]*aggGroup, 0, total)
	for _, g := range merged {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })

	// Global aggregation over an empty input yields one row, exactly like
	// the sequential operator.
	if len(p.eval.groupFns) == 0 && len(all) == 0 {
		t := newAggTable(p.eval.aggs, 1)
		t.insert(nil, nil)
		all = t.order
	}
	mergeWall := time.Since(mergeStart)

	if p.st != nil {
		var maxRows int64
		for _, r := range workerRows {
			if r > maxRows {
				maxRows = r
			}
		}
		p.ctx.mu.Lock()
		p.st.Pipelines = workers
		p.st.MergeParts = mergeParts
		p.st.LocalRows = localRows
		p.st.LocalGroups = localGroups
		p.st.MergedGroups = int64(len(all))
		p.st.MaxWorkerRows = maxRows
		p.st.LocalWallUS = localWall.Microseconds()
		p.st.MergeWallUS = mergeWall.Microseconds()
		if acct.enabled() {
			p.st.MemPeakBytes = atomic.LoadInt64(&opPeak)
			p.st.MemLimitBytes = acct.limit
			p.st.Spills = atomic.LoadInt64(&opSpills)
			p.st.SpillBytes = atomic.LoadInt64(&opSpillBytes)
		}
		p.ctx.mu.Unlock()
	}
	return emitGroupRows(all, p.eval.aggs), nil
}

// newChainCounts allocates the worker-local counters, index 0 for the scan
// and i+1 for stage i; nil slots when the query is not analyzed.
func (p *paggIter) newChainCounts(scanSt *OpStats, stageSts []*OpStats) []*chainCounts {
	counts := make([]*chainCounts, len(p.stages)+1)
	if p.ctx.stats == nil {
		return counts
	}
	counts[0] = &chainCounts{st: scanSt}
	for i := range p.stages {
		counts[i+1] = &chainCounts{st: stageSts[i]}
	}
	return counts
}

// instantiate assembles one partition's operator chain from the worker's
// compiled stages, with planck checking and count metering mirroring what
// prepare applies to the streaming pipeline.
func (p *paggIter) instantiate(src batchIter, cs []compiledStage, counts []*chainCounts) batchIter {
	it := src
	if p.ctx.planCheck {
		it = &checkIter{in: it, op: "Scan"}
	}
	if counts[0] != nil {
		it = &countIter{in: it, c: counts[0]}
	}
	for i := range cs {
		s := &cs[i]
		it = s.iter(it, p.ctx.batchSize)
		if p.ctx.planCheck {
			it = &checkIter{in: it, op: s.op}
		}
		if counts[i+1] != nil {
			it = &countIter{in: it, c: counts[i+1]}
		}
	}
	return it
}

// --- parallel hash-join build ------------------------------------------------

// encRef locates one encoded build key in its chunk's arena.
type encRef struct {
	row    int32
	lo, hi int32
	bucket int32
}

// encChunk is one worker's contiguous share of the build rows: a key arena
// plus the refs of the non-NULL-key rows, in row order.
type encChunk struct {
	arena []byte
	refs  []encRef
}

// buildParallel constructs the partitioned hash table in two phases:
//
//	phase A: workers take contiguous row chunks, evaluate the build keys
//	(each worker compiles its own copy — compiled expressions hold state,
//	and physicalize admitted only stateless keys) and encode them into a
//	per-chunk byte arena, bucketing each by hash.
//
//	phase B: workers claim buckets and build each bucket's map by walking
//	the chunks in index order. Chunks are contiguous ascending row ranges
//	and refs within a chunk are in row order, so every key's candidate
//	list comes out in build-input order — the property probe emission and
//	LEFT OUTER semantics observe.
func (j *joinIter) buildParallel(rows [][]variant.Value) error {
	parts := j.buildWorkers
	workers := j.buildWorkers
	if workers > len(rows) {
		workers = len(rows)
	}
	chunkLen := (len(rows) + workers - 1) / workers
	var spans [][2]int
	for lo := 0; lo < len(rows); lo += chunkLen {
		hi := lo + chunkLen
		if hi > len(rows) {
			hi = len(rows)
		}
		spans = append(spans, [2]int{lo, hi})
	}

	chunks := make([]encChunk, len(spans))
	var stop int32
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		atomic.StoreInt32(&stop, 1)
	}
	checkCancel := func() bool {
		if err := j.ectx.cancelled(); err != nil {
			fail(err)
			return true
		}
		return false
	}

	localStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(spans))
	for si, span := range spans {
		go func(si, lo, hi int) {
			defer wg.Done()
			fns := make([]evalFn, len(j.rightKeyExprs))
			for i, k := range j.rightKeyExprs {
				fn, err := compileExpr(j.rightSchema, k)
				if err != nil {
					fail(err)
					return
				}
				fns[i] = fn
			}
			var arena []byte
			refs := make([]encRef, 0, hi-lo)
			for r := lo; r < hi; r++ {
				if atomic.LoadInt32(&stop) != 0 {
					return
				}
				if (r-lo)%256 == 0 && checkCancel() {
					return
				}
				start := len(arena)
				skip := false
				for _, fn := range fns {
					v, err := fn(rows[r])
					if err != nil {
						fail(err)
						return
					}
					if v.IsNull() {
						skip = true // NULL keys never match in equi-joins
						break
					}
					arena = v.AppendGroupKey(arena)
				}
				if skip {
					arena = arena[:start]
					continue
				}
				refs = append(refs, encRef{
					row: int32(r), lo: int32(start), hi: int32(len(arena)),
					bucket: bucketOfKey(arena[start:], parts),
				})
			}
			chunks[si] = encChunk{arena: arena, refs: refs}
		}(si, span[0], span[1])
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	localWall := time.Since(localStart)

	mergeStart := time.Now()
	j.parts = make([]map[string]*buildList, parts)
	var bclaim int64
	var mwg sync.WaitGroup
	mwg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer mwg.Done()
			for {
				if atomic.LoadInt32(&stop) != 0 || checkCancel() {
					return
				}
				b := int(atomic.AddInt64(&bclaim, 1) - 1)
				if b >= parts {
					return
				}
				m := make(map[string]*buildList)
				for _, c := range chunks {
					for _, ref := range c.refs {
						if int(ref.bucket) != b {
							continue
						}
						key := c.arena[ref.lo:ref.hi]
						e, ok := m[string(key)]
						if !ok {
							e = &buildList{}
							m[string(key)] = e
						}
						e.rows = append(e.rows, rows[ref.row])
					}
				}
				j.parts[b] = m
			}
		}()
	}
	mwg.Wait()
	if firstErr != nil {
		return firstErr
	}
	mergeWall := time.Since(mergeStart)

	if j.st != nil {
		var keys int64
		for _, m := range j.parts {
			keys += int64(len(m))
		}
		var maxChunk int64
		for _, s := range spans {
			if n := int64(s[1] - s[0]); n > maxChunk {
				maxChunk = n
			}
		}
		j.st.Pipelines = len(spans)
		j.st.MergeParts = parts
		j.st.LocalRows = int64(len(rows))
		j.st.MergedGroups = keys
		j.st.MaxWorkerRows = maxChunk
		j.st.LocalWallUS = localWall.Microseconds()
		j.st.MergeWallUS = mergeWall.Microseconds()
	}
	return nil
}

// --- parallel sort -----------------------------------------------------------

// parallelSortRefs sorts the ref slice with per-worker sorted runs joined by
// a stability-preserving multiway merge. Runs are contiguous ascending
// spans, each stably sorted in place; the merge picks the smallest head,
// breaking ties toward the earliest run — which holds the earliest input
// indices — so the result is exactly the global stable sort. less must be
// pure (the sort keys are pre-evaluated), which lets every worker share it.
// The driver-side merge loop polls the query context so a cancelled sort
// aborts promptly.
func parallelSortRefs(ctx *execContext, refs []sortRef, less func(a, b sortRef) bool, workers int, st *OpStats) ([]sortRef, error) {
	n := len(refs)
	if workers > n {
		workers = n
	}
	chunkLen := (n + workers - 1) / workers
	var runs [][]sortRef
	for lo := 0; lo < n; lo += chunkLen {
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		runs = append(runs, refs[lo:hi:hi])
	}

	localStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(runs))
	for _, run := range runs {
		go func(run []sortRef) {
			defer wg.Done()
			sort.SliceStable(run, func(a, b int) bool { return less(run[a], run[b]) })
		}(run)
	}
	wg.Wait()
	localWall := time.Since(localStart)

	mergeStart := time.Now()
	out := make([]sortRef, 0, n)
	idx := make([]int, len(runs))
	for len(out) < n {
		if len(out)%4096 == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		best := -1
		for r := range runs {
			if idx[r] >= len(runs[r]) {
				continue
			}
			// Strict less: on ties the earliest run wins, preserving
			// stability across runs.
			if best < 0 || less(runs[r][idx[r]], runs[best][idx[best]]) {
				best = r
			}
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
	mergeWall := time.Since(mergeStart)

	if st != nil {
		var maxRun int64
		for _, run := range runs {
			if int64(len(run)) > maxRun {
				maxRun = int64(len(run))
			}
		}
		st.Pipelines = len(runs)
		st.MergeParts = len(runs)
		st.LocalRows = int64(n)
		st.MaxWorkerRows = maxRun
		st.LocalWallUS = localWall.Microseconds()
		st.MergeWallUS = mergeWall.Microseconds()
	}
	return out, nil
}
