package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"jsonpark"
	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/iterplan"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/obsv"
	"jsonpark/internal/obsv/qlog"
	"jsonpark/internal/server"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

// query is one JSONiq request of a workload, with its handwritten SQL when
// the workload has one.
type query struct {
	ID       string
	JSONiq   string
	SQL      string
	Strategy core.Strategy
}

// collection is one generated input collection.
type collection struct {
	name    string
	columns []string
	docs    []variant.Value
}

// objectColumns lists the top-level fields of a generated document, the
// staging schema of its collection.
func objectColumns(doc variant.Value) []string {
	return doc.AsObject().Keys()
}

// loadBatches loads docs loadBatch at a time through the public API and
// returns each batch's latency in milliseconds. With a tracer, every batch
// is a storage.append span.
func loadBatches(w *jsonpark.Warehouse, c collection, tr *tracer) ([]float64, error) {
	lat := make([]float64, 0, (len(c.docs)+loadBatch-1)/loadBatch)
	for i := 0; i < len(c.docs); i += loadBatch {
		end := min(i+loadBatch, len(c.docs))
		var err error
		d := tr.side("storage.append", c.name, func() {
			for _, doc := range c.docs[i:end] {
				if err = w.LoadObject(c.name, doc); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", c.name, err)
		}
		lat = append(lat, ms(d))
	}
	return lat, nil
}

// itemsOf returns the single "result" column of a translated query's rows.
func itemsOf(res *engine.Result) []variant.Value {
	items := make([]variant.Value, len(res.Rows))
	for i, r := range res.Rows {
		items[i] = r[0]
	}
	return items
}

// canonItems is an order-insensitive canonical form of JSONiq items.
func canonItems(items []variant.Value) string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.HashKey()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// canonRelational turns relational rows into objects keyed by column name,
// so handwritten SQL rows compare against JSONiq objects.
func canonRelational(res *engine.Result) string {
	items := make([]variant.Value, len(res.Rows))
	for i, row := range res.Rows {
		if len(row) == 1 {
			items[i] = row[0]
			continue
		}
		o := variant.NewObject()
		for c, name := range res.Columns {
			o.Set(name, row[c])
		}
		items[i] = variant.ObjectValue(o)
	}
	return canonItems(items)
}

// requestObs is what one decomposed, traced query request observed beyond
// its spans.
type requestObs struct {
	res    *engine.Result
	sql    string
	bindUS float64
}

// tracedQuery runs one JSONiq request as the sequence of public layer calls
// Warehouse.Query makes, with a child span around each call when tr is set,
// and returns the request's wall time.
func tracedQuery(tr *tracer, w *jsonpark.Warehouse, q query) (requestObs, time.Duration, error) {
	var obs requestObs
	start := time.Now()
	root := tr.request("request", q.ID)
	err := func() error {
		var expr jsoniq.Expr
		var err error
		timed(root, "jsoniq.parse", func() { expr, err = jsoniq.Parse(q.JSONiq) })
		if err != nil {
			return err
		}
		timed(root, "jsoniq.rewrite", func() { expr = jsoniq.Rewrite(expr) })
		timed(root, "iterplan.build", func() { _, err = iterplan.Build(expr) })
		if err != nil {
			return err
		}
		var df *snowpark.DataFrame
		timed(root, "core.translate", func() {
			df, err = core.TranslateExpr(w.Session(), expr, core.Options{Strategy: q.Strategy})
		})
		if err != nil {
			return err
		}
		var sql string
		timed(root, "snowpark.render", func() { sql = df.SQL() })
		obs.sql = sql
		// The engine's own compile/bind spans are read back only to split
		// bind from compile; Warehouse.Query passes the same span option.
		ot := obsv.NewTracer(1).Start("prepare")
		var p *engine.Prepared
		timed(root, "engine.prepare", func() { p, err = w.Engine().PrepareOpts(sql, engine.PrepareOptions{Span: ot.Root}) })
		td := ot.Finish()
		if err != nil {
			return err
		}
		for _, c := range td.Root.Children {
			if c.Name == "engine.prepare" {
				obs.bindUS = float64(c.DurationUS)
			}
		}
		timed(root, "engine.run", func() { obs.res, err = p.Run() })
		if err != nil {
			return err
		}
		timed(root, "variant.encode", func() {
			for _, r := range obs.res.Rows {
				for _, v := range r {
					_ = v.JSON()
				}
			}
		})
		return nil
	}()
	if root == nil {
		return obs, time.Since(start), err
	}
	return obs, root.end(), err
}

// census counts the deterministic work of one query on the current data:
// iterators in its plan, bytes of generated SQL, and rows emitted by every
// operator of its executed plan.
type censusCounts struct {
	iterators, sqlBytes, rowsProcessed int64
}

func census(w *jsonpark.Warehouse, q query) (censusCounts, error) {
	var c censusCounts
	expr, err := jsoniq.Parse(q.JSONiq)
	if err != nil {
		return c, err
	}
	expr = jsoniq.Rewrite(expr)
	it, err := iterplan.Build(expr)
	if err != nil {
		return c, err
	}
	c.iterators = int64(iterplan.Census(it).Total())
	sql, err := w.Translate(q.JSONiq, jsonpark.WithStrategy(q.Strategy))
	if err != nil {
		return c, err
	}
	c.sqlBytes = int64(len(sql))
	_, ps, err := w.Engine().QueryAnalyze(sql)
	if err != nil {
		return c, err
	}
	ps.Walk(func(_ int, n *engine.PlanStats) { c.rowsProcessed += n.RowsOut })
	return c, nil
}

// httpServer is server.New on a loopback listener.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan error
	qlog *os.File
}

func startServer(w *jsonpark.Warehouse, qlogPath string) (*httpServer, error) {
	f, err := os.Create(qlogPath)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s := &httpServer{
		hs:   &http.Server{Handler: server.New(w, server.WithQueryLog(qlog.New(f)))},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		qlog: f,
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *httpServer) stop() error {
	err := s.hs.Close()
	<-s.done
	if cerr := s.qlog.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient is one keep-alive HTTP client holding a single connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one JSON request and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, out, time.Since(start), err
}

func queryBody(q query) []byte {
	b, _ := json.Marshal(map[string]string{"query": q.JSONiq, "strategy": q.Strategy.String()})
	return b
}

// rowsOf wraps items as the one-column rows of a translated query.
func rowsOf(items []variant.Value) [][]variant.Value {
	rows := make([][]variant.Value, len(items))
	for i, it := range items {
		rows[i] = []variant.Value{it}
	}
	return rows
}

// responseItems parses the items of a /query response.
func responseItems(body []byte) ([]variant.Value, error) {
	var r struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	items := make([]variant.Value, len(r.Items))
	for i, raw := range r.Items {
		v, err := variant.ParseJSON(raw)
		if err != nil {
			return nil, err
		}
		items[i] = v
	}
	return items, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		p := dir + "/" + e.Name()
		if e.IsDir() {
			m, err := dirBytes(p)
			if err != nil {
				return 0, err
			}
			n += m
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// storageFootprint sums partitions and resident bytes over every collection.
func storageFootprint(w *jsonpark.Warehouse) (parts int64, memBytes int64, err error) {
	cat := w.Engine().Catalog()
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			return 0, 0, err
		}
		parts += int64(len(t.Partitions()))
		memBytes += t.TotalBytes()
	}
	return parts, memBytes, nil
}

// jsonBytes is the size of the documents as JSON text.
func jsonBytes(colls []collection) int64 {
	var n int64
	for _, c := range colls {
		for _, d := range c.docs {
			n += int64(len(d.JSON()))
		}
	}
	return n
}
