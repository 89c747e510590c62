package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jsonpark"
	"jsonpark/internal/adl"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/jsoniq"
	rt "jsonpark/internal/runtime"
	"jsonpark/internal/variant"
)

// The serve-mixed operation kinds.
const (
	opADL  = iota // /query over the stable adl collection
	opLive        // /query of q1 over the growing live collection
	opView        // /views/query of the materialized view of q1 over live
	opLoad        // /load of a batch of new events into live
)

var opNames = []string{"adl_query", "live_query", "view_query", "load"}

// op is one step of the fixed operation sequence.
type op struct {
	kind int
	q    int // index into the adl queries (opADL), load number (opLoad)
}

// serveOpen is jsqd's default serving configuration over a data directory.
func serveOpen(dir string) []jsonpark.OpenOption {
	return []jsonpark.OpenOption{
		jsonpark.WithDataDir(dir),
		jsonpark.WithPlanCacheSize(256),
		jsonpark.WithResultCacheSize(256),
		jsonpark.WithResultCacheBytes(64 << 20),
		jsonpark.WithTypedColumns(true),
	}
}

// block is the operation mix of every 20 operations of the sequence: 80%
// adl queries, 10% live queries, 5% loads and 5% view reads. A load stands
// for itself and the afterLoad operations that follow it: a live query and
// a view read.
var block = []int{
	opADL, opADL, opADL, opADL, opADL, opADL, opADL, opADL,
	opADL, opADL, opADL, opADL, opADL, opADL, opADL, opADL,
	opLive, opLoad,
}

// afterLoad is the number of operations the client that made a load sends
// next, before it takes another step of the sequence.
const afterLoad = 2

// sequence draws the seeded operation sequence: blocks of the mix, each in
// a seeded order, with the adl queries Zipf-skewed toward q1. Every seed
// has the same mix, so seeds differ in order only, not in the work done.
// Every load is followed by a live query, which seals the loaded documents
// into a partition, and a view read, which folds that partition in; the
// client that made the load sends both (see serveSequence).
func sequence(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, 7)
	seq := make([]op, 0, n)
	loads := 0
	for len(seq) < n {
		for _, i := range rng.Perm(len(block)) {
			switch o := (op{kind: block[i]}); o.kind {
			case opADL:
				o.q = int(zipf.Uint64())
				seq = append(seq, o)
			case opLive:
				seq = append(seq, o)
			case opLoad:
				o.q = loads
				loads++
				seq = append(seq, o, op{kind: opLive}, op{kind: opView})
			}
		}
	}
	return seq[:n]
}

// serveInputs are the generated documents a set-up loads.
type serveInputs struct {
	adl, live []variant.Value
}

func serveGenerate(seed int64, sz sizes) serveInputs {
	return serveInputs{adl: hepdata.Events(seed, sz.ServeADL), live: liveEvents(seed, sz.ServeLive)}
}

// liveEvents generates the live collection's first n documents: the ones
// set-up loads, then the ones the sequence's loads append, in load order.
func liveEvents(seed int64, n int) []variant.Value {
	g := hepdata.NewGenerator(seed + 1)
	out := make([]variant.Value, n)
	for i := range out {
		out[i] = g.Event(int64(500000 + i))
	}
	return out
}

// loadPayloads encodes the /load request bodies of the sequence's loads,
// loadBatch documents each.
func loadPayloads(stream []variant.Value) ([][]byte, error) {
	var out [][]byte
	for k := 0; k+loadBatch <= len(stream); k += loadBatch {
		docs := make([]json.RawMessage, loadBatch)
		for i := range docs {
			docs[i] = json.RawMessage(stream[k+i].JSON())
		}
		b, err := json.Marshal(map[string]any{"collection": "live", "documents": docs})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// liveQ1 is ADL q1 over the live collection.
func liveQ1() query {
	q1, _ := adl.ByID("q1")
	return query{ID: "live.q1", JSONiq: strings.Replace(q1.JSONiq, `collection("adl")`, `collection("live")`, 1)}
}

func serveQueries() []query {
	var qs []query
	for _, q := range adl.Queries() {
		qs = append(qs, query{ID: q.ID, JSONiq: q.JSONiq, SQL: q.SQL, Strategy: q.Strategy})
	}
	return qs
}

// serveState is one set-up server and the request bodies the clients send.
type serveState struct {
	w   *jsonpark.Warehouse
	srv *httpServer
	dir string
	// payloads are the /load bodies in load order; bodies the /query body
	// of each query by ID. Both are encoded once per run, outside set-up.
	payloads [][]byte
	bodies   map[string][]byte
	// loadMu lets one /load run at a time; see serveOp.
	loadMu sync.Mutex
}

// serveSetup goes from nothing to a listening server: generation, load
// through the public API, Flush to the data directory, reopen, view
// registration and server start.
func serveSetup(cfg config, rep int, qlogPath string, tr *tracer) (*serveState, error) {
	in := serveGenerate(cfg.seed, cfg.sz)
	dir := filepath.Join(cfg.out, "data", fmt.Sprintf("serve-mixed-%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	w := jsonpark.Open(serveOpen(dir)...)
	for _, c := range []collection{{"adl", hepdata.Columns(), in.adl}, {"live", hepdata.Columns(), in.live}} {
		if err := w.CreateCollection(c.name, c.columns); err != nil {
			return nil, err
		}
		if _, err := loadBatches(w, c, tr); err != nil {
			return nil, err
		}
	}
	var err error
	tr.side("storage.flush", "", func() { err = w.Flush() })
	if err != nil {
		return nil, err
	}
	tr.side("storage.reopen", "", func() {
		w = jsonpark.Open(serveOpen(dir)...)
		for _, name := range []string{"adl", "live"} {
			if _, err = w.Engine().Catalog().Table(name); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := w.CreateView("live_q1", liveQ1().JSONiq); err != nil {
		return nil, err
	}
	st := &serveState{w: w, dir: dir}
	st.srv, err = startServer(w, qlogPath)
	return st, err
}

func (st *serveState) close() error {
	err := st.srv.stop()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// sample is one completed operation, kept for checking after the timed
// phase so checks cost nothing inside it.
type sample struct {
	kind   int
	id     string
	status int
	body   []byte
	ms     float64
	err    error
	loads  int64 // loads started when the response arrived (live reads)
}

func runServe(cfg config) (*result, error) {
	res := newResult(cfg)
	n := int(float64(cfg.sz.ServeOps) * cfg.seconds)
	seq := sequence(cfg.seed, n)
	loads := 0
	mix := make([]int, len(opNames))
	for _, o := range seq {
		mix[o.kind]++
		if o.kind == opLoad {
			loads++
		}
	}
	queries := serveQueries()

	// Oracles, outside set-up: the interpreter over the adl documents, and
	// over the live documents as every run of the sequence leaves them. The
	// request bodies are encoded here too, once per run.
	adlDocs := hepdata.Events(cfg.seed, cfg.sz.ServeADL)
	liveDocs := liveEvents(cfg.seed, cfg.sz.ServeLive+loads*loadBatch)
	payloads, err := loadPayloads(liveDocs[cfg.sz.ServeLive:])
	if err != nil {
		return nil, err
	}
	bodies := map[string][]byte{}
	want := map[string]string{}
	interp := rt.New(rt.ProfileDefault)
	interp.LoadCollection("adl", adlDocs)
	interp.LoadCollection("live", liveDocs)
	for _, q := range append(serveQueries(), liveQ1()) {
		bodies[q.ID] = queryBody(q)
		expr, err := parseRewrite(q.JSONiq)
		if err != nil {
			return nil, err
		}
		items, err := interp.Run(expr)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.ID, err)
		}
		h, err := adl.HistogramFromItems(items)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.ID, err)
		}
		want[q.ID] = h.String()
	}
	if cfg.corrupt {
		want["q1"] += " corrupted"
	}
	interp, adlDocs, liveDocs = nil, nil, nil

	// The run is several rounds, each a timed set-up from nothing that then
	// serves the whole sequence; latencies pool over the rounds. The traced
	// run makes two rounds: the first serves the sequence untraced, so the
	// cache and view counters see only served requests, and the second
	// serves it traced.
	rounds := cfg.sz.SetupReps
	var tr *tracer
	if cfg.trace {
		tr, rounds = newTracer(), 2
	}
	var served cacheCounters
	qlogPath := filepath.Join(cfg.out, fmt.Sprintf("serve-mixed-seed%d.qlog.jsonl", cfg.seed))
	var setupS, heaps, walls []float64
	var allocBytes float64
	lat := newPerKey()
	var qlat, livelat, llat, vlat []float64
	partial := 0
	for round := 0; round < rounds; round++ {
		traced := cfg.trace && round == rounds-1
		var roundTr *tracer
		if traced {
			roundTr = tr
		}
		heap0 := settledHeap()
		start := time.Now()
		st, err := serveSetup(cfg, round, qlogPath, roundTr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		st.payloads, st.bodies = payloads, bodies
		err = func() error {
			// The server is stopped and its data directory removed on every
			// path; a failure to remove it leaves only files under the
			// output directory.
			defer func() { _ = st.close() }()
			heaps = append(heaps, settledHeap()-heap0)
			var lm *layerMeter
			if traced {
				lm = newLayerMeter(tr, st.w)
			}
			counters := readCounters(st.w)
			before := readRuntime()
			logs, wall := serveSequence(st, lm, seq, queries)
			allocBytes += readRuntime().allocBytes - before.allocBytes
			walls = append(walls, wall.Seconds())
			if lm == nil {
				served = readCounters(st.w).sub(counters)
			}
			client := newClient()
			defer client.CloseIdleConnections()
			// After the sequence, q1 over live and the view must match the
			// interpreter over the final documents.
			var loadsStarted atomic.Int64
			loadsStarted.Store(int64(loads))
			logs = append(logs, []sample{
				serveOp(st, nil, client, op{kind: opLive}, queries, &loadsStarted),
				serveOp(st, nil, client, op{kind: opView}, queries, &loadsStarted),
			})
			base := int64(cfg.sz.ServeLive)
			for i, log := range logs {
				last := base
				for _, s := range log {
					res.Attempted++
					if !checkSample(res, s, want, base, &last, &partial) {
						continue
					}
					if i == len(logs)-1 {
						if h, err := histOf(s); err != nil || h.String() != want["live.q1"] {
							res.fail("final %s: output differs from the interpreter over the final documents (err=%v)", s.id, err)
						}
						continue
					}
					switch s.kind {
					case opADL:
						lat.add(s.id, s.ms)
						qlat = append(qlat, s.ms)
					case opLive:
						livelat = append(livelat, s.ms)
						qlat = append(qlat, s.ms)
					case opLoad:
						llat = append(llat, s.ms)
					case opView:
						vlat = append(vlat, s.ms)
					}
				}
			}
			if lm != nil {
				return serveLayers(cfg, res, lm, queries, loads, rounds, served)
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	res.detail("live.partial_batch_reads", float64(partial), "count", mix[opLive]+mix[opView])
	res.Env["workload"] = map[string]any{
		"ops":              n,
		"rounds":           rounds,
		"mix":              map[string]int{opNames[0]: mix[0], opNames[1]: mix[1], opNames[2]: mix[2], opNames[3]: mix[3]},
		"loop":             "closed, 2 keep-alive HTTP clients over one fixed seeded sequence, one load at a time",
		"adl_events":       cfg.sz.ServeADL,
		"live_events":      cfg.sz.ServeLive,
		"load_batch":       loadBatch,
		"plan_cache":       256,
		"result_cache":     "256 entries / 64 MiB",
		"typed_columns":    true,
		"data_dir":         true,
		"parallelism":      runtime.GOMAXPROCS(0),
		"zipf_s":           1.3,
		"live_view":        "q1 over live",
		"adl_query_strats": "q6 join, others keep-flag",
	}
	if cfg.trace {
		return res, tr.write(filepath.Join(cfg.out, fmt.Sprintf("serve-mixed-seed%d.spans.jsonl", cfg.seed)))
	}
	var sumWall float64
	for _, w := range walls {
		sumWall += w
	}
	res.set("setup_s", median(setupS), "s", len(setupS))
	res.set("heap_after_setup_mb", median(heaps)/(1<<20), "MiB", len(heaps))
	res.set("alloc_kb_per_op", allocBytes/1024/float64(n*rounds), "KiB", n*rounds)
	res.set("suite_s", median(walls), "s", len(walls))
	res.set("ops_per_s", float64(n*rounds)/sumWall, "ops/s", n*rounds)
	// The geometric mean is over q1–q8 only: the live reads are a mixture of
	// result-cache hits and misses whose median jumps between the two.
	res.set("query_geomean_ms", lat.geomeanOfMedians(), "ms", len(qlat)-len(livelat))
	res.set("query_p50_ms", median(qlat), "ms", len(qlat))
	res.detail("query_p95_ms", percentile(qlat, 95), "ms", len(qlat))
	res.set("load_p50_ms", median(llat), "ms", len(llat))
	res.detail("load_p95_ms", percentile(llat, 95), "ms", len(llat))
	res.set("view_p50_ms", median(vlat), "ms", len(vlat))
	for id, m := range lat.medians() {
		res.detail(id+".latency_ms", m, "ms", len(lat.vals[id]))
	}
	res.detail("live.q1.latency_ms", median(livelat), "ms", len(livelat))
	return res, nil
}

// serveSequence runs the sequence with two keep-alive clients, each taking
// the next step when its previous one has completed, and returns each
// client's samples in its own order with the sequence's wall time. A step
// is one operation, or a load with the afterLoad operations after it.
func serveSequence(st *serveState, lm *layerMeter, seq []op, queries []query) ([][]sample, time.Duration) {
	var mu sync.Mutex
	cursor := 0
	next := func() []op {
		mu.Lock()
		defer mu.Unlock()
		end := cursor
		if end < len(seq) && seq[end].kind == opLoad {
			end += afterLoad
		}
		end = min(end+1, len(seq))
		ops := seq[cursor:end]
		cursor = end
		return ops
	}
	var loadsStarted atomic.Int64
	logs := make([][]sample, 2)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(log *[]sample) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for ops := next(); len(ops) > 0; ops = next() {
				for _, o := range ops {
					*log = append(*log, serveOp(st, lm, client, o, queries, &loadsStarted))
				}
			}
		}(&logs[c])
	}
	wg.Wait()
	return logs, time.Since(start)
}

// serveLayers reports the traced run's per-layer metrics. The cache and
// view ratios come from served, the counters' change over the untraced
// sequence; the counts come from a fresh set-up, so they do not depend on
// how the clients interleaved.
func serveLayers(cfg config, res *result, lm *layerMeter, queries []query, loads, freshRep int, served cacheCounters) error {
	lm.finish()
	lm.caches = served
	lm.loads = loads
	lm.appendDocs = cfg.sz.ServeADL + cfg.sz.ServeLive + loads*loadBatch
	fresh, err := serveSetup(cfg, freshRep, os.DevNull, nil)
	if err != nil {
		return err
	}
	var cc censusCounts
	for _, q := range append(queries, liveQ1()) {
		c, err := census(fresh.w, q)
		if err != nil {
			_ = fresh.close()
			return fmt.Errorf("census %s: %w", q.ID, err)
		}
		cc.iterators += c.iterators
		cc.sqlBytes += c.sqlBytes
		cc.rowsProcessed += c.rowsProcessed
	}
	parts, memBytes, err := storageFootprint(fresh.w)
	if err == nil {
		lm.diskBytes, err = dirBytes(fresh.dir)
	}
	if cerr := fresh.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	gen := serveGenerate(cfg.seed, cfg.sz)
	lm.report(res, cc, parts, memBytes, jsonBytes([]collection{{docs: gen.adl}, {docs: gen.live}}))
	return nil
}

// parseRewrite prepares JSONiq text for the interpreter.
func parseRewrite(src string) (jsoniq.Expr, error) {
	e, err := jsoniq.Parse(src)
	if err != nil {
		return nil, err
	}
	return jsoniq.Rewrite(e), nil
}

// serveOp performs one operation of the sequence. With a layer meter
// (traced run), queries are also measured in-process layer by layer, and
// loads go in-process so each document's parse and append are timed.
func serveOp(st *serveState, lm *layerMeter, c *http.Client, o op, queries []query, loadsStarted *atomic.Int64) sample {
	s := sample{kind: o.kind}
	var d time.Duration
	switch o.kind {
	case opADL, opLive:
		q := liveQ1()
		if o.kind == opADL {
			q = queries[o.q]
		}
		s.id = q.ID
		s.status, s.body, d, s.err = post(c, st.srv.url+"/query", st.bodies[q.ID])
		s.loads = loadsStarted.Load()
		if lm != nil {
			lm.tr.record("http.query", q.ID, d)
			lm.addResp(len(s.body))
			if _, err := lm.untraced(q); err != nil && s.err == nil {
				s.err = err
			}
			if _, err := lm.request(q); err != nil && s.err == nil {
				s.err = err
			}
			if q.SQL != "" {
				if _, err := lm.handwritten(q); err != nil && s.err == nil {
					s.err = err
				}
			}
		}
	case opView:
		s.id = "live_q1"
		s.status, s.body, d, s.err = post(c, st.srv.url+"/views/query", []byte(`{"name":"live_q1"}`))
		s.loads = loadsStarted.Load()
	case opLoad:
		s.id = "load"
		// The clients send one load at a time: concurrent loads race on an
		// unsynchronized map in Warehouse.LoadObject and crash the process.
		// Reads still run beside the load.
		st.loadMu.Lock()
		defer st.loadMu.Unlock()
		loadsStarted.Add(1)
		if lm == nil {
			s.status, s.body, d, s.err = post(c, st.srv.url+"/load", st.payloads[o.q])
			break
		}
		// Traced: the same documents through the calls /load makes.
		start := time.Now()
		s.status, s.body = http.StatusOK, []byte(fmt.Sprintf(`{"loaded":%d}`, loadBatch))
		var raws struct {
			Documents []json.RawMessage `json:"documents"`
		}
		if s.err = json.Unmarshal(st.payloads[o.q], &raws); s.err != nil {
			break
		}
		for _, raw := range raws.Documents {
			var v variant.Value
			lm.tr.side("variant.parse", "load", func() { v, s.err = variant.ParseJSON(raw) })
			if s.err != nil {
				break
			}
			lm.tr.side("storage.append", "live", func() { s.err = st.w.LoadObject("live", v) })
			if s.err != nil {
				break
			}
		}
		lm.addParsed(len(raws.Documents))
		d = time.Since(start)
	}
	s.ms = ms(d)
	return s
}

// histOf parses a /query or /views/query response into a histogram.
func histOf(s sample) (adl.Histogram, error) {
	if s.kind == opView {
		var r struct {
			Items [][]json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(s.body, &r); err != nil {
			return nil, err
		}
		items := make([]variant.Value, len(r.Items))
		for i, row := range r.Items {
			if len(row) != 1 {
				return nil, fmt.Errorf("view row has %d cells", len(row))
			}
			v, err := variant.ParseJSON(row[0])
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return adl.HistogramFromItems(items)
	}
	items, err := responseItems(s.body)
	if err != nil {
		return nil, err
	}
	return adl.HistogramFromItems(items)
}

// checkSample validates one operation: status, and for reads the oracle
// (adl) or the prefix invariant (live). The storage contract is a row
// prefix: a read sees the initial documents plus a prefix of the loaded
// ones, never more than the loads started have sent, and never fewer than
// the same client saw before. A read that sees part of one /load batch
// (which appends document by document) is counted, not failed.
func checkSample(res *result, s sample, want map[string]string, base int64, last *int64, partial *int) bool {
	if s.err != nil {
		res.fail("%s %s: %v", opNames[s.kind], s.id, s.err)
		return false
	}
	if s.status != http.StatusOK {
		res.fail("%s %s: HTTP %d: %.200s", opNames[s.kind], s.id, s.status, s.body)
		return false
	}
	switch s.kind {
	case opLoad:
		return true
	case opADL:
		h, err := histOf(s)
		if err != nil || h.String() != want[s.id] {
			res.fail("%s: output differs from the oracle (err=%v)", s.id, err)
			return false
		}
		return true
	}
	h, err := histOf(s)
	if err != nil {
		res.fail("%s: %v", s.id, err)
		return false
	}
	n := h.TotalCount()
	if n < base || n-base > s.loads*loadBatch || n < *last {
		res.fail("%s: live count %d breaks the prefix invariant (base %d, loads started %d, last seen %d)", s.id, n, base, s.loads, *last)
		return false
	}
	if (n-base)%loadBatch != 0 {
		*partial++
	}
	*last = n
	return true
}
