package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jsonpark"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	w := jsonpark.Open()
	s := New(w)
	s.SetQueryLog(nil)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestEndToEndHTTPFlow(t *testing.T) {
	srv := testServer(t)

	code, out := post(t, srv, "/collections", `{"name": "orders", "columns": ["id", "items"]}`)
	if code != http.StatusOK {
		t.Fatalf("create: %d %v", code, out)
	}

	code, out = post(t, srv, "/load", `{"collection": "orders", "documents": [
		{"id": 1, "items": [{"qty": 2}]},
		{"id": 2, "items": []}
	]}`)
	if code != http.StatusOK || out["loaded"].(float64) != 2 {
		t.Fatalf("load: %d %v", code, out)
	}

	code, out = post(t, srv, "/query", `{"query": "for $o in collection(\"orders\") let $n := count(for $i in $o.items[] return $i) order by $o.id return {\"id\": $o.id, \"n\": $n}"}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	items := out["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("items = %v", items)
	}
	first := items[0].(map[string]any)
	if first["n"].(float64) != 1 {
		t.Errorf("first = %v", first)
	}
	if !strings.HasPrefix(out["sql"].(string), "SELECT") {
		t.Errorf("sql = %v", out["sql"])
	}
	metrics := out["metrics"].(map[string]any)
	if metrics["rows"].(float64) != 2 {
		t.Errorf("metrics = %v", metrics)
	}

	// GET /collections lists the created one.
	resp, err := http.Get(srv.URL + "/collections")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	cols := listing["collections"].([]any)
	if len(cols) != 1 || cols[0] != "orders" {
		t.Errorf("collections = %v", cols)
	}
}

func TestQueryStrategySelection(t *testing.T) {
	srv := testServer(t)
	post(t, srv, "/collections", `{"name": "c", "columns": ["id", "a"]}`)
	post(t, srv, "/load", `{"collection": "c", "documents": [{"id": 1, "a": [1, 2]}]}`)
	q := `{"query": "for $x in collection(\"c\") let $f := (for $v in $x.a[] where $v gt 1 return $v) return size($f)", "strategy": "join"}`
	code, out := post(t, srv, "/query", q)
	if code != http.StatusOK {
		t.Fatalf("join strategy: %d %v", code, out)
	}
	if !strings.Contains(out["sql"].(string), "LEFT OUTER JOIN") {
		t.Errorf("join strategy SQL missing join: %v", out["sql"])
	}
	code, out = post(t, srv, "/query", strings.Replace(q, `"join"`, `"bogus"`, 1))
	if code != http.StatusBadRequest {
		t.Errorf("bogus strategy: %d %v", code, out)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := testServer(t)
	code, _ := post(t, srv, "/query", `{"query": "for $x in"}`)
	if code != http.StatusBadRequest {
		t.Errorf("syntax error code = %d", code)
	}
	code, _ = post(t, srv, "/load", `{"collection": "missing", "documents": [{}]}`)
	if code != http.StatusBadRequest {
		t.Errorf("missing collection code = %d", code)
	}
	code, _ = post(t, srv, "/collections", `{bad json`)
	if code != http.StatusBadRequest {
		t.Errorf("bad json code = %d", code)
	}
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query code = %d", resp.StatusCode)
	}
	// Duplicate collection returns conflict.
	post(t, srv, "/collections", `{"name": "dup", "columns": ["x"]}`)
	code, _ = post(t, srv, "/collections", `{"name": "dup", "columns": ["x"]}`)
	if code != http.StatusConflict {
		t.Errorf("duplicate code = %d", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	for path, allow := range map[string]string{
		"/query":         "POST",
		"/translate":     "POST",
		"/load":          "POST",
		"/metrics":       "GET",
		"/debug/queries": "GET",
	} {
		var resp *http.Response
		var err error
		if allow == "POST" {
			resp, err = http.Get(srv.URL + path)
		} else {
			resp, err = http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		}
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: 405 body is not JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: code = %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != allow {
			t.Errorf("%s: Allow = %q, want %q", path, got, allow)
		}
		if out["error"] == "" {
			t.Errorf("%s: missing error body", path)
		}
	}
	// /collections takes both methods; a PUT names them all.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/collections", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, POST" {
		t.Errorf("PUT /collections: code=%d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestMalformedJSONBody(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/query", "/translate", "/load", "/collections"} {
		code, out := post(t, srv, path, `{"query": `)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code = %d", path, code)
		}
		msg, _ := out["error"].(string)
		if !strings.Contains(msg, "malformed request JSON") {
			t.Errorf("%s: error = %q", path, msg)
		}
	}
}

// TestLoadIsAllOrNothing: a batch whose third document is bad returns 400
// and loads none of the batch, so a following query sees no change.
func TestLoadIsAllOrNothing(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	for _, bad := range []string{`5`, `[{"id": 9}]`, `{"id": 1e400}`} {
		code, out := post(t, srv, "/load", `{"collection": "orders", "documents": [
			{"id": 3, "items": []}, {"id": 4, "items": []}, `+bad+`]}`)
		if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "document 2") {
			t.Fatalf("batch with bad document %s: %d %v", bad, code, out)
		}
		code, out = post(t, srv, "/query", ordersQuery)
		if items, _ := out["items"].([]any); code != http.StatusOK || len(items) != 2 {
			t.Fatalf("after rejected batch with %s: %d %v, want the 2 orders loaded before", bad, code, out)
		}
	}
}

func loadOrders(t *testing.T, srv *httptest.Server) {
	t.Helper()
	post(t, srv, "/collections", `{"name": "orders", "columns": ["id", "items"]}`)
	code, out := post(t, srv, "/load", `{"collection": "orders", "documents": [
		{"id": 1, "items": [{"qty": 2}]},
		{"id": 2, "items": [{"qty": 5}]}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("load: %d %v", code, out)
	}
}

const ordersQuery = `{"query": "for $o in collection(\"orders\") order by $o.id return $o.id"}`

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	if code, out := post(t, srv, "/query", ordersQuery); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	post(t, srv, "/query", `{"query": "for $x in"}`) // one failed query

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`jsonpark_queries_total{status="ok"} 1`,
		`jsonpark_queries_total{status="error"} 1`,
		"jsonpark_bytes_scanned_total",
		`jsonpark_query_stage_seconds_count{stage="engine.execute"} 1`,
		"# TYPE jsonpark_query_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Every sample line must parse as `name{labels} value`.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample %q has no value", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample %q: %v", line, err)
		}
	}
}

func TestDebugQueriesEndpoint(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	code, out := post(t, srv, "/query", ordersQuery)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	traceID, _ := out["trace_id"].(string)
	if traceID == "" {
		t.Fatalf("query response missing trace_id: %v", out)
	}

	resp, err := http.Get(srv.URL + "/debug/queries?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dbg struct {
		Queries []struct {
			TraceID string            `json:"trace_id"`
			Attrs   map[string]string `json:"attrs"`
			Spans   struct {
				Name     string `json:"name"`
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"spans"`
		} `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Queries) != 1 {
		t.Fatalf("queries = %d", len(dbg.Queries))
	}
	q := dbg.Queries[0]
	if q.TraceID != traceID {
		t.Errorf("trace_id = %q, want %q", q.TraceID, traceID)
	}
	if !strings.HasPrefix(q.Attrs["sql"], "SELECT") {
		t.Errorf("attrs.sql = %q", q.Attrs["sql"])
	}
	stages := map[string]bool{}
	for _, c := range q.Spans.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"jsoniq.parse", "core.translate", "engine.execute"} {
		if !stages[want] {
			t.Errorf("span tree missing stage %q (got %v)", want, stages)
		}
	}

	if resp, err := http.Get(srv.URL + "/debug/queries?n=bogus"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad n code = %d", resp.StatusCode)
		}
	}
}

func TestQueryAnalyzeOverHTTP(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	code, out := post(t, srv, "/query",
		`{"query": "for $o in collection(\"orders\") for $i in $o.items[] return $i.qty", "analyze": true}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	plan, ok := out["plan"].(map[string]any)
	if !ok {
		t.Fatalf("missing plan: %v", out)
	}
	if _, ok := plan["rows_out"]; !ok {
		t.Errorf("plan lacks rows_out: %v", plan)
	}
	text, _ := out["plan_text"].(string)
	if !strings.Contains(text, "Scan") || !strings.Contains(text, "bytes=") {
		t.Errorf("plan_text = %q", text)
	}
}

// TestQueryTimeoutReturns504: a server-side -query-timeout overrun answers
// 504 with a structured body and shows up as a cancelled query in /metrics.
func TestQueryTimeoutReturns504(t *testing.T) {
	w := jsonpark.Open()
	s := New(w, WithQueryTimeout(time.Nanosecond))
	s.SetQueryLog(nil)
	srv := httptest.NewServer(s)
	defer srv.Close()
	loadOrders(t, srv) // only /query is governed by the timeout

	code, out := post(t, srv, "/query", ordersQuery)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d %v, want 504", code, out)
	}
	if out["code"] != "query_timeout" {
		t.Errorf("body code = %v", out["code"])
	}
	if _, ok := out["timeout_ms"]; !ok {
		t.Errorf("body lacks timeout_ms: %v", out)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`jsonpark_queries_total{status="cancelled"} 1`,
		"jsonpark_queries_cancelled_total 1",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestClientDisconnectReturns499: a request whose context is already gone
// (client hung up) maps to the nginx-style 499, not a 4xx/5xx that would
// page on server health dashboards.
func TestClientDisconnectReturns499(t *testing.T) {
	w := jsonpark.Open()
	s := New(w)
	s.SetQueryLog(nil)
	srv := httptest.NewServer(s)
	defer srv.Close()
	loadOrders(t, srv)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(ordersQuery)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("code = %d (%s), want 499", rec.Code, rec.Body.String())
	}
	var out map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["code"] != "query_cancelled" {
		t.Errorf("body code = %v", out["code"])
	}
}

// TestConcurrentQueries hammers the shared observer from parallel clients;
// run under -race this pins the registry and trace ring as race-clean.
func TestConcurrentQueries(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	const clients, perClient = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(ordersQuery))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/metrics", "/debug/queries"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	<-scrapeDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	want := fmt.Sprintf(`jsonpark_queries_total{status="ok"} %d`, clients*perClient)
	if !strings.Contains(string(raw), want) {
		t.Errorf("/metrics missing %q", want)
	}
}
