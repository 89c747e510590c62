package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"jsonpark"
	"jsonpark/internal/engine"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
)

// layerMeter gathers the traced run's per-layer figures. Timings live in the
// tracer's spans; the meter keeps what spans cannot carry: engine metrics
// per request, cache and view counters, and document counts.
type layerMeter struct {
	tr *tracer
	w  *jsonpark.Warehouse
	// settle collects the heap before each measured call, as the suites'
	// timed passes do; the concurrent serve-mixed clients leave it off.
	settle bool

	mu           sync.Mutex
	bind         *perKey
	bytesScanned *perKey
	memPeak      *perKey
	typedCols    int64
	fallbackCols int64
	respBytes    []float64
	appendDocs   int
	parseDocs    int
	loads        int
	diskBytes    int64

	// caches is the counters' change over the measured interval.
	caches0, caches cacheCounters
	rt0, rt1        rtSample
	// forcedGC and forcedCPU are the GC CPU and total CPU of the
	// collections settle forced, which gc_cpu_share leaves out.
	forcedGC, forcedCPU float64
}

func newLayerMeter(tr *tracer, w *jsonpark.Warehouse) *layerMeter {
	lm := &layerMeter{tr: tr, w: w, bind: newPerKey(), bytesScanned: newPerKey(), memPeak: newPerKey()}
	lm.caches0 = readCounters(w)
	lm.rt0 = readRuntime()
	return lm
}

// cacheCounters are the engine's cumulative plan-cache, result-cache and
// view counters.
type cacheCounters struct {
	planHits, planMisses            int64
	resHits, resMisses, resInvalids int64
	viewRefreshes, viewDeltaParts   int64
}

func readCounters(w *jsonpark.Warehouse) cacheCounters {
	var c cacheCounters
	eng := w.Engine()
	c.planHits, c.planMisses, _, _ = eng.PlanCacheStats()
	c.resHits, c.resMisses, _, c.resInvalids, _, _ = eng.ResultCacheStats()
	for _, v := range w.ListViews() {
		c.viewRefreshes += v.Refreshes
		c.viewDeltaParts += v.DeltaParts
	}
	return c
}

func (c cacheCounters) sub(o cacheCounters) cacheCounters {
	return cacheCounters{
		c.planHits - o.planHits, c.planMisses - o.planMisses,
		c.resHits - o.resHits, c.resMisses - o.resMisses, c.resInvalids - o.resInvalids,
		c.viewRefreshes - o.viewRefreshes, c.viewDeltaParts - o.viewDeltaParts,
	}
}

// finish closes the measured interval of the counters.
func (lm *layerMeter) finish() {
	lm.caches = readCounters(lm.w).sub(lm.caches0)
	lm.rt1 = readRuntime()
}

// gc forces a collection when settle is set, keeping its CPU apart.
func (lm *layerMeter) gc() {
	if !lm.settle {
		return
	}
	before := readRuntime()
	runtime.GC()
	after := readRuntime()
	lm.forcedGC += after.gcCPU - before.gcCPU
	lm.forcedCPU += after.totalCPU - before.totalCPU
}

func (lm *layerMeter) addResp(n int) {
	lm.mu.Lock()
	lm.respBytes = append(lm.respBytes, float64(n))
	lm.mu.Unlock()
}

func (lm *layerMeter) addParsed(n int) {
	lm.mu.Lock()
	lm.parseDocs += n
	lm.mu.Unlock()
}

// untraced runs the query through Warehouse.Query as a plain caller would.
func (lm *layerMeter) untraced(q query) (*engine.Result, error) {
	lm.gc()
	var res *engine.Result
	var err error
	lm.tr.side("warehouse.query", q.ID, func() { res, err = lm.w.Query(q.JSONiq, jsonpark.WithStrategy(q.Strategy)) })
	return res, err
}

// request runs the decomposed request untraced, then traced (their
// latencies give the tracing overhead), then the side parse of its
// generated SQL.
func (lm *layerMeter) request(q query) (*engine.Result, error) {
	lm.gc()
	_, d, err := tracedQuery(nil, lm.w, q)
	if err != nil {
		return nil, err
	}
	lm.tr.record("request.untraced", q.ID, d)
	lm.gc()
	obs, _, err := tracedQuery(lm.tr, lm.w, q)
	if err != nil {
		return nil, err
	}
	if obs.sql != "" {
		var perr error
		lm.tr.side("sqlparse.parse", q.ID, func() { _, perr = sqlparse.Parse(obs.sql) })
		if perr != nil {
			return nil, perr
		}
	}
	m := obs.res.Metrics
	lm.mu.Lock()
	lm.bind.add(q.ID, obs.bindUS)
	lm.bytesScanned.add(q.ID, float64(m.BytesScanned))
	lm.memPeak.add(q.ID, float64(m.MemPeakBytes))
	lm.typedCols += m.TypedCols
	lm.fallbackCols += m.FallbackCols
	lm.mu.Unlock()
	return obs.res, nil
}

// http sends the query to the server and returns its items.
func (lm *layerMeter) http(c *http.Client, url string, q query) ([]variant.Value, error) {
	var status int
	var body []byte
	var err error
	lm.gc()
	lm.tr.side("http.query", q.ID, func() { status, body, _, err = post(c, url+"/query", queryBody(q)) })
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	lm.addResp(len(body))
	return responseItems(body)
}

// handwritten runs the query's handwritten SQL, timing Prepared.Run alone
// so it compares with the generated plan's engine.run span.
func (lm *layerMeter) handwritten(q query) (*engine.Result, error) {
	p, err := lm.w.Engine().Prepare(q.SQL)
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	lm.gc()
	lm.tr.side("handwritten.run", q.ID, func() { res, err = p.Run() })
	return res, err
}

// parseDocsOf times variant.ParseJSON over every document's JSON text.
func (lm *layerMeter) parseDocsOf(colls []collection) error {
	for _, c := range colls {
		texts := make([][]byte, len(c.docs))
		for i, d := range c.docs {
			texts[i] = []byte(d.JSON())
		}
		for i := 0; i < len(texts); i += 100 {
			var err error
			lm.tr.side("variant.parse", c.name, func() {
				for _, t := range texts[i:min(i+100, len(texts))] {
					if _, err = variant.ParseJSON(t); err != nil {
						return
					}
				}
			})
			if err != nil {
				return err
			}
		}
		lm.parseDocs += len(texts)
	}
	return nil
}

// persistCopy loads the documents into a fresh persistent warehouse, then
// times Flush and a reopen of its data directory.
func (lm *layerMeter) persistCopy(colls []collection, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := jsonpark.Open(jsonpark.WithDataDir(dir))
	for _, c := range colls {
		if err := w.CreateCollection(c.name, c.columns); err != nil {
			return err
		}
		for _, d := range c.docs {
			if err := w.LoadObject(c.name, d); err != nil {
				return err
			}
		}
	}
	var err error
	lm.tr.side("storage.flush", "", func() { err = w.Flush() })
	if err != nil {
		return err
	}
	if lm.diskBytes, err = dirBytes(dir); err != nil {
		return err
	}
	lm.tr.side("storage.reopen", "", func() { err = reopen(dir, colls[0].name) })
	return err
}

// reopen opens a data directory and resolves one collection, which loads
// the catalog's table headers.
func reopen(dir, coll string) error {
	w := jsonpark.Open(jsonpark.WithDataDir(dir))
	_, err := w.Engine().Catalog().Table(coll)
	return err
}

// spanTotal sums the durations of every span with the given name.
func (lm *layerMeter) spanTotal(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range lm.tr.spans {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// report computes every per-layer metric. Timings are the geometric mean
// over queries of each query's median unless stated otherwise.
func (lm *layerMeter) report(res *result, cc censusCounts, parts, memBytes, input int64) {
	tr := lm.tr
	usOf := func(name, metricName string) {
		p := tr.byName(name)
		res.set(metricName, p.geomeanOfMedians()/1e3, "us", p.count())
	}
	usOf("jsoniq.parse", "jsoniq.parse_us")
	usOf("jsoniq.rewrite", "jsoniq.rewrite_us")
	usOf("iterplan.build", "iterplan.build_us")
	usOf("core.translate", "core.translate_us")
	usOf("snowpark.render", "snowpark.render_us")
	usOf("sqlparse.parse", "sqlparse.parse_us")
	usOf("engine.prepare", "engine.prepare_us")
	usOf("variant.encode", "variant.encode_us")
	res.set("iterplan.iterators", float64(cc.iterators), "count", 0)
	res.set("snowpark.sql_bytes", float64(cc.sqlBytes), "count", 0)
	res.set("engine.rows_processed", float64(cc.rowsProcessed), "count", 0)
	res.set("engine.bind_us", lm.bind.geomeanOfMedians(), "us", lm.bind.count())

	run := tr.byName("engine.run")
	res.set("engine.exec_ms", run.geomeanOfMedians()/1e6, "ms", run.count())
	hand := tr.byName("handwritten.run")
	runMed, handMed := run.medians(), hand.medians()
	var ratios []float64
	for _, id := range run.keys {
		res.detail(id+".exec_ms", runMed[id]/1e6, "ms", len(run.vals[id]))
		if h, ok := handMed[id]; ok && h > 0 {
			r := runMed[id] / h
			ratios = append(ratios, r)
			res.detail(id+".gen_over_hand", r, "ratio", len(hand.vals[id]))
			res.detail(id+".hand_exec_ms", h/1e6, "ms", len(hand.vals[id]))
		}
	}
	res.set("core.gen_over_hand", geomean(ratios), "ratio", len(ratios))

	res.set("engine.bytes_scanned_mb", lm.bytesScanned.geomeanOfMedians()/(1<<20), "MiB", lm.bytesScanned.count())
	res.set("engine.typed_col_share", ratio(float64(lm.typedCols), float64(lm.typedCols+lm.fallbackCols)), "fraction", lm.bytesScanned.count())
	res.set("engine.mem_peak_mb", lm.memPeak.geomeanOfMedians()/(1<<20), "MiB", lm.memPeak.count())
	c := lm.caches
	ph, pm := float64(c.planHits), float64(c.planMisses)
	rh, rm := float64(c.resHits), float64(c.resMisses)
	res.set("engine.plan_cache_hit_ratio", ratio(ph, ph+pm), "fraction", int(ph+pm))
	res.set("engine.result_cache_hit_ratio", ratio(rh, rh+rm), "fraction", int(rh+rm))
	res.set("engine.result_cache_invalidations_per_load", ratio(float64(c.resInvalids), float64(lm.loads)), "count", lm.loads)
	res.set("engine.view_delta_parts_per_refresh", ratio(float64(c.viewDeltaParts), float64(c.viewRefreshes)), "count", int(c.viewRefreshes))

	// Server overhead: per query, median HTTP latency minus median
	// in-process Warehouse.Query latency; the median over queries.
	httpP := tr.byName("http.query")
	httpMed, whMed := httpP.medians(), tr.byName("warehouse.query").medians()
	var over []float64
	for id, h := range httpMed {
		if w, ok := whMed[id]; ok {
			over = append(over, (h-w)/1e3)
		}
	}
	res.set("server.overhead_us", median(over), "us", len(over))
	res.set("server.response_kb", mean(lm.respBytes)/1024, "KiB", len(lm.respBytes))

	parse, _ := lm.spanTotal("variant.parse")
	res.set("variant.parse_us_per_doc", ratio(us(parse), float64(lm.parseDocs)), "us", lm.parseDocs)
	app, _ := lm.spanTotal("storage.append")
	res.set("storage.append_us_per_doc", ratio(us(app), float64(lm.appendDocs)), "us", lm.appendDocs)
	flush, nf := lm.spanTotal("storage.flush")
	res.set("storage.flush_ms", ratio(ms(flush), float64(nf)), "ms", nf)
	reo, nr := lm.spanTotal("storage.reopen")
	res.set("storage.reopen_ms", ratio(ms(reo), float64(nr)), "ms", nr)
	res.set("storage.disk_bytes_per_input_byte", ratio(float64(lm.diskBytes), float64(input)), "ratio", 1)
	res.set("storage.mem_bytes_per_input_byte", ratio(float64(memBytes), float64(input)), "ratio", 1)
	res.set("storage.partitions", float64(parts), "count", 0)

	gcCPU := lm.rt1.gcCPU - lm.rt0.gcCPU - lm.forcedGC
	res.set("goruntime.gc_cpu_share", ratio(gcCPU, lm.rt1.totalCPU-lm.rt0.totalCPU-lm.forcedCPU), "fraction", 1)
	// Tracing overhead: the traced request against the same calls made
	// without spans.
	reqP, untP := tr.byName("request"), tr.byName("request.untraced")
	res.set("trace.overhead_share", ratio(reqP.geomeanOfMedians(), untP.geomeanOfMedians())-1, "fraction", reqP.count())
	u, n := tr.unaccountedShare("request")
	res.set("trace.unaccounted_share", u, "fraction", n)
	for id, h := range httpMed {
		res.detail(id+".http_ms", h/1e6, "ms", len(httpP.vals[id]))
	}
}
