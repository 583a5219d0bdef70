package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avfs/api"
)

// opPrefix marks the request IDs the benchmark mints for its ops; server
// spans of other requests (the traced run's own pulls) are ignored.
const opPrefix = "b-"

// unaccountedTolerance is the share of client-observed time the layer
// self times may leave uncovered before a traced run fails its check.
const unaccountedTolerance = 0.02

// span is one timed interval of a traced run. Spans the benchmark records
// itself (client, router, upstream, node and campaign calls) carry a
// start on the benchmark's clock; server spans pulled from /spans keep
// only their duration, their clock being the session's.
type span struct {
	Op    string `json:"op"`
	Layer string `json:"layer"`
	Class string `json:"class,omitempty"`
	Start int64  `json:"start_ns,omitempty"`
	Dur   int64  `json:"dur_ns"`
	Ticks uint64 `json:"ticks,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run writes them
// out. A nil tracer records nothing and its wrappers pass through.
type tracer struct {
	epoch     time.Time
	on        atomic.Bool
	respBytes atomic.Int64 // response bytes the load client read

	mu    sync.Mutex
	spans []span
	seen  map[serverKey]struct{} // server spans already added
	calls map[string]*callAgg    // in-process call timings by metric name
}

// callAgg accumulates timings in milliseconds.
type callAgg struct {
	sum float64
	n   int64
}

func (a *callAgg) mean() float64 { return ratio(a.sum, float64(a.n)) }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), seen: map[serverKey]struct{}{}, calls: map[string]*callAgg{}}
}

// active reports whether spans are being recorded now.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// record adds one span measured on the benchmark's clock.
func (t *tracer) record(op, layer, class string, start time.Time, d time.Duration) {
	sp := span{Op: op, Layer: layer, Class: class, Start: start.Sub(t.epoch).Nanoseconds(), Dur: d.Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// addServer adds the server's own spans of benchmark ops, as pulled from
// a session's /spans ring. A span pulled twice (a ring read again from its
// start) is kept once.
func (t *tracer) addServer(sps []api.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range sps {
		if !strings.HasPrefix(sp.RequestID, opPrefix) {
			continue
		}
		k := serverKey{sp.RequestID, sp.Name, sp.ID, sp.StartNs}
		if _, dup := t.seen[k]; dup {
			continue
		}
		t.seen[k] = struct{}{}
		t.spans = append(t.spans, span{Op: sp.RequestID, Layer: sp.Name, Dur: sp.DurationNs, Ticks: sp.Ticks})
	}
}

// serverKey identifies a server span across pulls.
type serverKey struct {
	op, name  string
	id, start int64
}

// copySpans returns the spans recorded so far.
func (t *tracer) copySpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timeCall times one in-process call into a layer's public API under a
// per-layer metric name, and records it as a span of no op (the fold
// skips it: no client waited on it); failed calls are not timed.
func (t *tracer) timeCall(name string, fn func() error) {
	start := time.Now()
	if err := fn(); err != nil {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: name, Start: start.Sub(t.epoch).Nanoseconds(), Dur: d.Nanoseconds()})
	a := t.calls[name]
	if a == nil {
		a = &callAgg{}
		t.calls[name] = a
	}
	a.sum += ms(d)
	a.n++
}

// setCallMetrics reports every timed in-process call's mean.
func (t *tracer) setCallMetrics(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, a := range t.calls {
		m[name] = a.mean()
	}
}

// write dumps every span as JSONL.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.copySpans() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type opKey struct{}

// withOp tags a request context with its benchmark op ID.
func withOp(ctx context.Context, op string) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// opOf returns the op ID a context carries, "" for none.
func opOf(ctx context.Context) string {
	op, _ := ctx.Value(opKey{}).(string)
	return op
}

// wrap times a public Handler() — the router's or a node's — as one
// layer. The request's X-Request-ID names the op; the router hands it on
// to its node requests through the request context.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.Header.Get("X-Request-ID")
		if !t.active() || !strings.HasPrefix(op, opPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withOp(r.Context(), op)))
		t.record(op, layer, classify(r), start, time.Since(start))
	})
}

// classify maps a request onto its class.
func classify(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodGet:
		return classRead
	case strings.HasPrefix(p, "/v1/cluster/"):
		return classMigrate
	case strings.HasSuffix(p, "/run"):
		return classRun
	case strings.HasSuffix(p, "/whatif"):
		return classWhatIf
	}
	return classWrite
}

// transport wraps an HTTP client's transport. A request of a benchmark op
// gets the op as its X-Request-ID, so the node adopts it as the request
// ID and every server span carries it. On the router's node client
// (layer "upstream") it also times each node round trip, until the router
// closes the response; on the load client it counts response bytes read.
func (t *tracer) transport(layer string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &tracedTransport{base: base, t: t, layer: layer}
}

type tracedTransport struct {
	base  http.RoundTripper
	t     *tracer
	layer string
}

func (tp *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opOf(req.Context())
	if op == "" || !tp.t.active() {
		return tp.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", op)
	start := time.Now()
	resp, err := tp.base.RoundTrip(req)
	if err != nil {
		if tp.layer == "upstream" {
			tp.t.record(op, tp.layer, "", start, time.Since(start))
		}
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, tp: tp, op: op, start: start}
	return resp, nil
}

// tracedBody ends an upstream span when the router closes the node's
// response, and counts the bytes the load client reads.
type tracedBody struct {
	io.ReadCloser
	tp    *tracedTransport
	op    string
	start time.Time
	n     int64
	once  sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		if b.tp.layer == "upstream" {
			b.tp.t.record(b.op, b.tp.layer, "", b.start, time.Since(b.start))
		} else {
			b.tp.t.respBytes.Add(b.n)
		}
	})
	return err
}

// layerTable is a traced run's per-layer self-time table: each span's
// duration minus its children's, summed per layer, against the time the
// client (or the campaign loop) observed.
type layerTable struct {
	rows        map[string]*layerRow
	nodeClass   map[string]*callAgg // node handler time (ms) by request class
	rootNs      int64               // client-observed time of the folded ops
	ops         int
	ticks       uint64 // simulated ticks under the sim.advance spans
	unaccounted float64
}

type layerRow struct {
	spans  int
	selfNs int64
}

// layerDocs lists the layers from the client inwards, with the module and
// boundary each stands for.
var layerDocs = []struct{ name, module string }{
	{"wire", "client + api + net/http: client-observed time − outermost handler"},
	{"router", "internal/cluster Router.Handler − its node round trips"},
	{"router.upstream", "router → node round trip − node handler"},
	{"service.edge", "internal/service Handler middleware: node handler − http.request"},
	{"service.http", "internal/service http.request self: decode, registry, session lock, encode"},
	{"actor.queue", "internal/service actor.queue: pool admission → worker pick-up"},
	{"runner.cell", "internal/service runner.cell self: chunk loop, lock waits"},
	{"sim.advance", "internal/sim advance under the session lock"},
	{"campaign.evaluate", "internal/experiments EvaluateAllContext"},
	{"campaign.characterize", "internal/experiments Figure3/4/5Context + internal/vmin"},
	{"campaign.glue", "pass − campaign calls: wlgen, store set-up"},
}

// fold groups spans by op and attributes each op's client-observed time to
// layers by self time. A request with no handler span leaves its time
// unaccounted, as does the node time of a run whose server spans were
// lost; the self times of a completely traced op sum to its client time.
func fold(spans []span) *layerTable {
	tab := &layerTable{rows: map[string]*layerRow{}, nodeClass: map[string]*callAgg{}}
	byOp := map[string][]span{}
	for _, sp := range spans {
		byOp[sp.Op] = append(byOp[sp.Op], sp)
	}
	var covered int64
	for _, group := range byOp {
		sum := map[string]int64{}
		cnt := map[string]int{}
		class := ""
		for _, sp := range group {
			sum[sp.Layer] += sp.Dur
			cnt[sp.Layer]++
			switch sp.Layer {
			case "client":
				class = sp.Class
			case "node":
				a := tab.nodeClass[sp.Class]
				if a == nil {
					a = &callAgg{}
					tab.nodeClass[sp.Class] = a
				}
				a.sum += float64(sp.Dur) / 1e6
				a.n++
			case "sim.advance":
				tab.ticks += sp.Ticks
			}
		}
		root := "client"
		if cnt["campaign.pass"] > 0 {
			root = "campaign.pass"
		}
		if cnt[root] == 0 {
			continue
		}
		tab.ops++
		tab.rootNs += sum[root]
		self := func(layer string, ns int64, n int) {
			if n == 0 {
				return
			}
			if ns < 0 {
				ns = 0
			}
			row := tab.rows[layer]
			if row == nil {
				row = &layerRow{}
				tab.rows[layer] = row
			}
			row.spans += n
			row.selfNs += ns
			covered += ns
		}
		if root == "campaign.pass" {
			self("campaign.glue", sum[root]-sum["campaign.evaluate"]-sum["campaign.characterize"], cnt[root])
			self("campaign.evaluate", sum["campaign.evaluate"], cnt["campaign.evaluate"])
			self("campaign.characterize", sum["campaign.characterize"], cnt["campaign.characterize"])
			continue
		}
		outer := sum["node"]
		if cnt["router"] > 0 {
			outer = sum["router"]
			self("router", sum["router"]-sum["upstream"], cnt["router"])
			self("router.upstream", sum["upstream"]-sum["node"], cnt["upstream"])
		}
		if outer == 0 {
			continue
		}
		self("wire", sum["client"]-outer, cnt["client"])
		if class == classRun && cnt["runner.cell"] == 0 {
			continue
		}
		jobs := sum["actor.queue"] + sum["runner.cell"]
		if cnt["http.request"] > 0 {
			self("service.edge", sum["node"]-sum["http.request"], cnt["node"])
			self("service.http", sum["http.request"]-jobs, cnt["http.request"])
		} else {
			self("service.edge", sum["node"]-jobs, cnt["node"])
		}
		self("actor.queue", sum["actor.queue"], cnt["actor.queue"])
		self("runner.cell", sum["runner.cell"]-sum["sim.advance"], cnt["runner.cell"])
		self("sim.advance", sum["sim.advance"], cnt["sim.advance"])
	}
	if tab.rootNs > 0 {
		tab.unaccounted = float64(tab.rootNs-covered) / float64(tab.rootNs)
	}
	return tab
}

// meanMS is a layer's mean self time per span in milliseconds.
func (tab *layerTable) meanMS(layer string) float64 {
	row := tab.rows[layer]
	if row == nil {
		return 0
	}
	return ratio(float64(row.selfNs)/1e6, float64(row.spans))
}

// spanCount is the number of spans folded into a layer.
func (tab *layerTable) spanCount(layer string) int {
	if row := tab.rows[layer]; row != nil {
		return row.spans
	}
	return 0
}

// setMetrics sets the per-layer metrics the span fold yields.
func (tab *layerTable) setMetrics(m map[string]float64) {
	m["wire.overhead_ms"] = tab.meanMS("wire")
	m["router.self_ms"] = tab.meanMS("router")
	m["router.upstream_per_op"] = ratio(float64(tab.spanCount("router.upstream")), float64(tab.spanCount("router")))
	for _, c := range []string{classRead, classWrite, classRun, classWhatIf} {
		if a := tab.nodeClass[c]; a != nil {
			m["http.handler_ms."+c] = a.mean()
		}
	}
	m["actor.queue_ms"] = tab.meanMS("actor.queue")
	m["sim.advance_ms"] = tab.meanMS("sim.advance")
	if row := tab.rows["sim.advance"]; row != nil {
		m["sim.ns_per_tick"] = ratio(float64(row.selfNs), float64(tab.ticks))
	}
	m["layers.unaccounted_ratio"] = tab.unaccounted
}

// render prints the table: per layer its span count, total self time, its
// share of the client-observed total and its self time per op.
func (tab *layerTable) render(w io.Writer) {
	fmt.Fprintf(w, "%-22s %8s %12s %8s %10s  %s\n", "layer", "spans", "self_ms", "share", "ms/op", "module")
	line := func(name string, spans int, ns int64, module string) {
		fmt.Fprintf(w, "%-22s %8d %12.3f %7.2f%% %10.4f  %s\n", name, spans, float64(ns)/1e6,
			100*ratio(float64(ns), float64(tab.rootNs)), ratio(float64(ns)/1e6, float64(tab.ops)), module)
	}
	var covered int64
	for _, l := range layerDocs {
		if row := tab.rows[l.name]; row != nil {
			line(l.name, row.spans, row.selfNs, l.module)
			covered += row.selfNs
		}
	}
	line("unaccounted", 0, tab.rootNs-covered, fmt.Sprintf("tolerance %.0f%% of the total", 100*unaccountedTolerance))
	line("total", tab.ops, tab.rootNs, "client-observed time of the traced ops")
}

// finishTrace applies the layer-sum check to out.table and writes the
// spans out.
func finishTrace(tr *tracer, out *outcome, path string) error {
	switch tab := out.table; {
	case tab.ops == 0:
		out.mismatch("the traced window recorded no ops")
	case math.Abs(tab.unaccounted) > unaccountedTolerance:
		out.mismatch("layer self times leave %.2f%% of client-observed time unaccounted (tolerance %.0f%%)",
			100*tab.unaccounted, 100*unaccountedTolerance)
	}
	return tr.write(path)
}
