package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"jsonpark"
	"jsonpark/internal/adl"
	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	rt "jsonpark/internal/runtime"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
)

// suite is a closed-loop query workload: one caller runs passes over a
// fixed query set, each pass in a seeded order, with the plan cache and the
// result cache off so every pass pays translation, compilation and
// execution.
type suite struct {
	name    string
	queries []query
	sizes   map[string]any
	// generate builds the input collections from the seed.
	generate func(seed int64) []collection
	// viewJSONiq or viewSQL defines the materialized view registered at
	// setup and read between passes.
	viewJSONiq, viewSQL string
	// canonGen and canonHand put generated and handwritten results into
	// the oracle's canonical form; canonView does the same for view rows.
	canonGen  func(res *engine.Result) (string, error)
	canonHand func(res *engine.Result) (string, error)
	canonView func(res *engine.Result) (string, error)
	// oracle computes the expected canonical output of every query (by ID)
	// and of the view (key "view") from an independent reference.
	oracle func(colls []collection) (map[string]string, error)
}

// suiteOpen is the warehouse configuration of both suites: engine defaults
// (parallelism = GOMAXPROCS, typed columns on) with both caches off.
var suiteOpen = []jsonpark.OpenOption{jsonpark.WithPlanCacheSize(-1)}

func adlSuite(cfg config) *suite {
	var qs []query
	for _, q := range adl.Queries() {
		qs = append(qs, query{ID: q.ID, JSONiq: q.JSONiq, SQL: q.SQL, Strategy: q.Strategy})
	}
	q1, _ := adl.ByID("q1")
	hist := func(res *engine.Result) (string, error) {
		h, err := adl.HistogramFromItems(itemsOf(res))
		return h.String(), err
	}
	return &suite{
		name:    "adl-nested",
		queries: qs,
		sizes:   map[string]any{"events": cfg.sz.ADLEvents},
		generate: func(seed int64) []collection {
			return []collection{{name: "adl", columns: hepdata.Columns(), docs: hepdata.Events(seed, cfg.sz.ADLEvents)}}
		},
		viewJSONiq: q1.JSONiq,
		canonGen:   hist,
		canonView:  hist,
		canonHand: func(res *engine.Result) (string, error) {
			h, err := adl.HistogramFromRows(res.Rows)
			return h.String(), err
		},
		// The interpreter (internal/runtime) evaluates JSONiq directly over
		// the documents: it shares the parser with the system under test but
		// none of the translation, SQL or engine.
		oracle: func(colls []collection) (map[string]string, error) {
			r := rt.New(rt.ProfileDefault)
			r.LoadCollection("adl", colls[0].docs)
			want := map[string]string{}
			for _, q := range adl.Queries() {
				h, err := adl.RunInterpreted(r, q)
				if err != nil {
					return nil, err
				}
				want[q.ID] = h.String()
			}
			want["view"] = want["q1"]
			return want, nil
		},
	}
}

// ssbViewSQL is a mergeable aggregate over the fact table (SUM/AVG are not
// view-eligible).
const ssbViewSQL = `SELECT lo_discount, COUNT(*) AS n, MIN(lo_quantity) AS qmin, MAX(lo_revenue) AS rmax FROM lineorder GROUP BY lo_discount`

func ssbSuite(cfg config) *suite {
	var qs []query
	for _, q := range ssb.Queries() {
		qs = append(qs, query{ID: q.ID, JSONiq: q.JSONiq, SQL: q.SQL})
	}
	gen := func(res *engine.Result) (string, error) { return canonItems(itemsOf(res)), nil }
	rel := func(res *engine.Result) (string, error) { return canonRelational(res), nil }
	return &suite{
		name:      "ssb-star",
		queries:   qs,
		sizes:     map[string]any{"scale_factor": cfg.sz.SSBScale, "lineorders": ssb.SizesForScaleFactor(cfg.sz.SSBScale).Lineorders},
		generate:  func(seed int64) []collection { return ssbCollections(seed, cfg.sz.SSBScale) },
		viewSQL:   ssbViewSQL,
		canonGen:  gen,
		canonHand: func(res *engine.Result) (string, error) { return canonRelational(emptySumAsZero(res)), nil },
		canonView: rel,
		// The reference is the handwritten SQL on a separate, conservative
		// engine: one worker, no typed columns, no caches. The interpreter
		// cannot serve at this size (its joins are nested loops); selftest
		// cross-checks it against this reference at a small scale factor.
		oracle: func(colls []collection) (map[string]string, error) {
			w, err := conservative(colls)
			if err != nil {
				return nil, err
			}
			want := map[string]string{}
			for _, q := range ssb.Queries() {
				res, err := w.SQL(q.SQL)
				if err != nil {
					return nil, fmt.Errorf("oracle %s: %w", q.ID, err)
				}
				want[q.ID] = canonRelational(emptySumAsZero(res))
			}
			res, err := w.SQL(ssbViewSQL)
			if err != nil {
				return nil, fmt.Errorf("oracle view: %w", err)
			}
			want["view"] = canonRelational(res)
			return want, nil
		},
	}
}

// emptySumAsZero maps SQL's NULL for a SUM over no rows to JSONiq's 0 for
// sum() of an empty sequence (the flight-1 queries return one such scalar).
func emptySumAsZero(res *engine.Result) *engine.Result {
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].IsNull() {
		return &engine.Result{Columns: res.Columns, Rows: [][]variant.Value{{variant.Int(0)}}}
	}
	return res
}

func ssbCollections(seed int64, sf float64) []collection {
	t := ssb.Generate(seed, ssb.SizesForScaleFactor(sf))
	var out []collection
	for _, c := range []struct {
		name string
		docs []variant.Value
	}{{"lineorder", t.Lineorder}, {"customer", t.Customer}, {"supplier", t.Supplier}, {"part", t.Part}, {"date", t.Date}} {
		out = append(out, collection{name: c.name, columns: objectColumns(c.docs[0]), docs: c.docs})
	}
	return out
}

// conservative loads colls into the reference engine configuration.
func conservative(colls []collection) (*jsonpark.Warehouse, error) {
	w := jsonpark.Open(jsonpark.WithParallelism(1), jsonpark.WithTypedColumns(false), jsonpark.WithPlanCacheSize(-1))
	for _, c := range colls {
		if err := w.CreateCollection(c.name, c.columns); err != nil {
			return nil, err
		}
		for _, d := range c.docs {
			if err := w.LoadObject(c.name, d); err != nil {
				return nil, err
			}
		}
	}
	return w, w.Flush()
}

// setup builds the workload state from nothing: generation, load through
// the public API in batches of ten documents, seal and view registration.
// It returns each batch's load latency in milliseconds.
func (s *suite) setup(seed int64, tr *tracer) (*jsonpark.Warehouse, []collection, []float64, error) {
	colls := s.generate(seed)
	w := jsonpark.Open(suiteOpen...)
	var loadMS []float64
	for _, c := range colls {
		if err := w.CreateCollection(c.name, c.columns); err != nil {
			return nil, nil, nil, err
		}
		lat, err := loadBatches(w, c, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		loadMS = append(loadMS, lat...)
	}
	var err error
	tr.side("storage.seal", "", func() { err = w.Flush() })
	if err != nil {
		return nil, nil, nil, err
	}
	return w, colls, loadMS, s.createView(w)
}

// createView registers the suite's view as "v".
func (s *suite) createView(w *jsonpark.Warehouse) error {
	if s.viewJSONiq != "" {
		return w.CreateView("v", s.viewJSONiq)
	}
	return w.CreateSQLView("v", s.viewSQL)
}

// suiteRun is the state of one suite run.
type suiteRun struct {
	s    *suite
	cfg  config
	res  *result
	want map[string]string
	w    *jsonpark.Warehouse
}

// check compares one output with the oracle, counting a mismatch as a
// failed operation.
func (r *suiteRun) check(id, what string, got string, err error) {
	if err != nil {
		r.res.fail("%s %s: %v", id, what, err)
		return
	}
	if got != r.want[id] {
		r.res.fail("%s %s: output differs from the oracle", id, what)
	}
}

func runSuite(cfg config, s *suite) (*result, error) {
	res := newResult(cfg)
	r := &suiteRun{s: s, cfg: cfg, res: res}
	// The oracle runs once per seed, before and outside the timed setup.
	want, err := s.oracle(s.generate(cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if cfg.corrupt {
		want[s.queries[0].ID] += " corrupted"
	}
	r.want = want
	runtime.GC()

	var tr *tracer
	reps := cfg.sz.SuiteSetups
	if cfg.trace {
		tr, reps = newTracer(), 1
	}
	var setupS, heaps, loadLat, viewLat []float64
	var colls []collection
	for i := 0; i < reps; i++ {
		r.w, colls = nil, nil
		heap0 := settledHeap()
		start := time.Now()
		w, c, lat, err := s.setup(cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		r.w = w
		loadLat = append(loadLat, lat...)
		// The warehouse keeps the documents it loaded; only the traced run
		// needs the benchmark's own reference to them.
		if cfg.trace {
			colls = c
		}
		heaps = append(heaps, settledHeap()-heap0)
		lat, err = r.viewReads()
		if err != nil {
			return nil, err
		}
		viewLat = append(viewLat, lat...)
	}

	eng := r.w.Engine()
	res.Env["workload"] = map[string]any{
		"sizes":         s.sizes,
		"queries":       len(s.queries),
		"loop":          "closed, 1 caller, passes in seeded order",
		"setup_reps":    reps,
		"load_batch":    loadBatch,
		"plan_cache":    "off",
		"result_cache":  "off",
		"typed_columns": true,
		"parallelism":   eng.Parallelism(),
		"batch_size":    eng.BatchSize(),
	}
	if cfg.trace {
		return res, r.traced(tr, colls)
	}

	lat := newPerKey()
	var all, passS []float64
	rng := rand.New(rand.NewSource(cfg.seed))
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	var last time.Duration
	for pass := 0; pass < cfg.sz.MinPasses || timeLeft(start, cfg.seconds, last); pass++ {
		passStart := time.Now()
		var passDur time.Duration
		for _, i := range rng.Perm(len(s.queries)) {
			q := s.queries[i]
			// Every query starts on a collected heap, so the garbage of the
			// query before it (up to GiBs on ADL) does not land on its
			// latency; alloc_kb_per_op still counts all it allocates.
			runtime.GC()
			t0 := time.Now()
			out, err := r.w.Query(q.JSONiq, jsonpark.WithStrategy(q.Strategy))
			d := time.Since(t0)
			passDur += d
			res.Attempted++
			if err != nil {
				r.check(q.ID, "query", "", err)
				continue
			}
			lat.add(q.ID, ms(d))
			all = append(all, ms(d))
			got, err := s.canonGen(out)
			r.check(q.ID, "query", got, err)
		}
		last = time.Since(passStart)
		passS = append(passS, passDur.Seconds())
	}
	after := readRuntime()
	var sumPass float64
	for _, p := range passS {
		sumPass += p
	}
	res.set("setup_s", median(setupS), "s", len(setupS))
	res.set("heap_after_setup_mb", median(heaps)/(1<<20), "MiB", len(heaps))
	res.set("alloc_kb_per_op", (after.allocBytes-before.allocBytes)/1024/float64(len(passS)*len(s.queries)), "KiB", len(all))
	res.set("suite_s", median(passS), "s", len(passS))
	res.set("query_geomean_ms", lat.geomeanOfMedians(), "ms", len(all))
	// On a suite, ops_per_s is the queries' throughput over their summed
	// latency, so it moves as the reciprocal of suite_s.
	res.set("ops_per_s", float64(len(all))/sumPass, "ops/s", len(all))
	// Percentiles across the suite's queries of each query's median: a
	// percentile of the raw mixture would fall in the gap between two
	// queries' latencies and jump between runs.
	var meds []float64
	for _, m := range lat.medians() {
		meds = append(meds, m)
	}
	res.set("query_p50_ms", median(meds), "ms", len(all))
	// A suite's loads are the ten-document batches of its set-ups.
	res.set("load_p50_ms", median(loadLat), "ms", len(loadLat))
	// The p95s are recorded but not declared metrics: their spread between
	// runs comes too close to any bound the benchmark may set.
	res.detail("query_p95_ms", percentile(meds, 95), "ms", len(all))
	res.detail("load_p95_ms", percentile(loadLat, 95), "ms", len(loadLat))
	res.set("view_p50_ms", median(viewLat), "ms", len(viewLat))
	for id, m := range lat.medians() {
		res.detail(id+".latency_ms", m, "ms", len(lat.vals[id]))
	}
	return res, nil
}

// viewFolds is the number of first view reads timed after each set-up; one
// read takes milliseconds, too short for one per set-up to give a steady
// median.
const viewFolds = 5

// viewReads times first reads of the view: the one registered at set-up,
// then the same view dropped and registered again (untimed), each read on a
// collected heap. A first read folds in every loaded partition. The traced
// run (reps of 1) takes only the one read.
func (r *suiteRun) viewReads() ([]float64, error) {
	n := viewFolds
	if r.cfg.trace {
		n = 1
	}
	var lat []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			r.w.DropView("v")
			if err := r.s.createView(r.w); err != nil {
				return nil, fmt.Errorf("view: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		out, err := r.w.ViewResult(context.Background(), "v")
		d := time.Since(t0)
		r.res.Attempted++
		if err != nil {
			return nil, fmt.Errorf("view: %w", err)
		}
		got, err := r.s.canonView(out)
		r.check("view", "view", got, err)
		lat = append(lat, ms(d))
	}
	return lat, nil
}

// traced is the per-layer run: every pass runs each query untraced through
// Warehouse.Query, as a traced request of decomposed layer calls, through
// HTTP, and as handwritten SQL, plus side measurements.
func (r *suiteRun) traced(tr *tracer, colls []collection) error {
	res, s, w := r.res, r.s, r.w

	// Deterministic counts on the post-setup data.
	var cc censusCounts
	for _, q := range s.queries {
		c, err := census(w, q)
		if err != nil {
			return fmt.Errorf("census %s: %w", q.ID, err)
		}
		cc.iterators += c.iterators
		cc.sqlBytes += c.sqlBytes
		cc.rowsProcessed += c.rowsProcessed
	}
	parts, memBytes, err := storageFootprint(w)
	if err != nil {
		return err
	}
	input := jsonBytes(colls)

	srv, err := startServer(w, filepath.Join(r.cfg.out, s.name+".qlog.jsonl"))
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()

	lm := newLayerMeter(tr, w)
	lm.settle = true
	rng := rand.New(rand.NewSource(r.cfg.seed))
	start := time.Now()
	var last time.Duration
	for pass := 0; pass < 1 || timeLeft(start, r.cfg.seconds, last); pass++ {
		passStart := time.Now()
		for _, i := range rng.Perm(len(s.queries)) {
			res.Attempted++
			r.tracedOp(lm, s.queries[i], srv, client)
		}
		last = time.Since(passStart)
	}
	lm.finish()
	if err := srv.stop(); err != nil {
		return err
	}

	// Side measurements: JSON parse of every input document, and the
	// loaded data persisted to a data directory and reopened.
	if err := lm.parseDocsOf(colls); err != nil {
		return err
	}
	for _, c := range colls {
		lm.appendDocs += len(c.docs)
	}
	if err := lm.persistCopy(colls, filepath.Join(r.cfg.out, "data", s.name)); err != nil {
		return err
	}
	lm.report(res, cc, parts, memBytes, input)
	return tr.write(filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d.spans.jsonl", s.name, r.cfg.seed)))
}

// tracedOp runs one query every way the traced run measures it, checking
// each output against the oracle.
func (r *suiteRun) tracedOp(lm *layerMeter, q query, srv *httpServer, client *http.Client) {
	out, err := lm.untraced(q)
	got := ""
	if err == nil {
		got, err = r.s.canonGen(out)
	}
	r.check(q.ID, "query", got, err)
	out, err = lm.request(q)
	got = ""
	if err == nil {
		got, err = r.s.canonGen(out)
	}
	r.check(q.ID, "traced request", got, err)
	items, err := lm.http(client, srv.url, q)
	got = ""
	if err == nil {
		got, err = r.s.canonGen(&engine.Result{Rows: rowsOf(items)})
	}
	r.check(q.ID, "http", got, err)
	out, err = lm.handwritten(q)
	got = ""
	if err == nil {
		got, err = r.s.canonHand(out)
	}
	r.check(q.ID, "handwritten", got, err)
}
