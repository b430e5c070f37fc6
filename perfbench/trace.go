package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"serenade/client"
	"serenade/internal/core"
	"serenade/internal/fastjson"
	"serenade/internal/index"
	"serenade/internal/kvstore"
	"serenade/internal/obs/quality"
	"serenade/internal/rank"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

// Layers timed by the traced run. Each request is a root span whose
// children are calls into one layer's public entry point; every layer runs
// on its own instance, fed the identical stream, so its session state
// matches the server's.
const (
	spanRequest   = iota
	spanRTT       // client.Recommend over loopback to an in-process server
	spanHandler   // serving.Server.Handler().ServeHTTP, no socket
	spanDecode    // serving.DecodeRequest
	spanRecommend // serving.Server.Recommend
	spanGet       // kvstore.Store.GetAppend
	spanPut       // kvstore.Store.Put
	spanDelete    // kvstore.Store.Delete
	spanNeighbors // core.Recommender.NeighborSessions
	spanScore     // core.Recommender.ScoreNeighbors
	spanExposure  // quality.Tracker.RecordExposure
	spanAttribute // quality.Tracker.Attribute
	spanEncode    // serving.EncodeResponse
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "edge.rtt", "edge.handler", "edge.decode", "serving.recommend",
	"store.get", "store.put", "store.delete", "kernel.neighbors", "kernel.score",
	"quality.exposure", "quality.attribute", "edge.encode",
}

// span is one timed interval, in nanoseconds since the trace began.
type span struct {
	kind       uint8
	parent     int32 // index of the parent span, -1 for a root
	start, end int64
}

// tracer keeps spans in memory; they are written out after the run. With
// on false, begin and end do nothing, which gives the untraced pass the
// overhead figure is measured against.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func (t *tracer) begin(kind uint8, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, parent: parent, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.base))
	}
}

// selfTime is a span's duration minus the part of its interval its
// children cover; overlapping children count once, and child time outside
// the parent's interval does not count.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	covered := int64(0)
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.s > cur.e {
			covered += cur.e - cur.s
			cur = v
		} else if v.e > cur.e {
			cur.e = v.e
		}
	}
	covered += cur.e - cur.s
	return time.Duration(parent.end - parent.start - covered)
}

// layerTimes collects, per span kind, the durations of one traced pass, and
// per request the serving layer's self time: serving.Server.Recommend minus
// the store, kernel and exposure calls the separate instances made for the
// same request.
type layerTimes struct {
	byKind      [numSpanKinds][]time.Duration
	servingSelf []time.Duration
	rootSelf    []time.Duration
}

func collect(spans []span) *layerTimes {
	lt := &layerTimes{}
	children := map[int32][]span{}
	for _, s := range spans {
		lt.byKind[s.kind] = append(lt.byKind[s.kind], time.Duration(s.end-s.start))
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range spans {
		if s.parent >= 0 {
			continue
		}
		kids := children[int32(i)]
		lt.rootSelf = append(lt.rootSelf, selfTime(s, kids))
		var rec, parts time.Duration
		for _, k := range kids {
			d := time.Duration(k.end - k.start)
			switch k.kind {
			case spanRecommend:
				rec = d
			case spanGet, spanPut, spanDelete, spanNeighbors, spanScore, spanExposure:
				parts += d
			}
		}
		lt.servingSelf = append(lt.servingSelf, rec-parts)
	}
	return lt
}

func usMedian(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return float64(percentile(sortedCopy(ds), 0.5)) / 1e3
}

func usP99(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return float64(percentile(sortedCopy(ds), 0.99)) / 1e3
}

// ledger adds the layers up per request (means, which add where medians do
// not) and names any gap over gapLimit percent.
type ledger struct {
	handler, layers, rtt, socket float64
	unexplainedPct, socketPct    float64
	rows                         []ledgerRow
}

type ledgerRow struct {
	name string
	us   float64
}

const gapLimit = 15.0

// buildLedger compares Σ(decode, store, kernel, exposure, encode) with the
// handler and the handler with the socket round trip. perRequest divides
// each layer's total by the request count, so a layer called on only some
// requests (a delete, an attribution) weighs by how often it runs. The
// exposure counts only where the workload's server records exposures.
func buildLedger(lt *layerTimes, requests int, withQuality bool) ledger {
	perRequest := func(kind int) float64 {
		var sum time.Duration
		for _, d := range lt.byKind[kind] {
			sum += d
		}
		return float64(sum) / float64(requests) / 1e3
	}
	var l ledger
	kinds := []int{spanDecode, spanGet, spanPut, spanDelete, spanNeighbors, spanScore, spanEncode}
	if withQuality {
		kinds = append(kinds, spanExposure)
	}
	for _, k := range kinds {
		v := perRequest(k)
		l.rows = append(l.rows, ledgerRow{spanNames[k], v})
		l.layers += v
	}
	l.handler = perRequest(spanHandler)
	l.rtt = perRequest(spanRTT)
	l.socket = l.rtt - l.handler
	if l.handler > 0 {
		l.unexplainedPct = 100 * (l.handler - l.layers) / l.handler
	}
	if l.rtt > 0 {
		l.socketPct = 100 * l.socket / l.rtt
	}
	return l
}

func (l ledger) print() {
	fmt.Println("layer ledger (mean µs per request):")
	for _, r := range l.rows {
		fmt.Printf("  %-20s %9.1f\n", r.name, r.us)
	}
	fmt.Printf("  %-20s %9.1f\n", "Σ layers", l.layers)
	fmt.Printf("  %-20s %9.1f  (unexplained %.1f%%)\n", "edge.handler", l.handler, l.unexplainedPct)
	fmt.Printf("  %-20s %9.1f  (socket and client %.1f µs = %.1f%%)\n", "edge.rtt", l.rtt, l.socket, l.socketPct)
	if l.unexplainedPct > gapLimit || l.unexplainedPct < -gapLimit {
		fmt.Printf("FINDING: the handler's layers leave %.1f%% of edge.handler unexplained (limit %.0f%%): rules, padding, tracing, idempotency and metrics sit outside the timed layers\n",
			l.unexplainedPct, gapLimit)
	}
	if l.socketPct > gapLimit {
		fmt.Printf("FINDING: %.1f%% of the loopback round trip is outside the handler (limit %.0f%%): client, net/http and the socket\n",
			l.socketPct, gapLimit)
	}
}

// instances are the per-layer copies the traced run drives.
type instances struct {
	idx        *core.Index
	rtt        *serving.Server // behind a loopback listener
	handlerSrv *serving.Server
	handler    http.Handler // of its own serving.Server
	serving    *serving.Server
	store      *kvstore.Store
	kernel     *core.Recommender
	quality    *quality.Tracker
	line       *quality.Line
	cl         *client.Client
	httpSrv    *http.Server
	listener   net.Listener
}

func openInstances(o options, fx *fixture, dir string) (*instances, error) {
	in := &instances{}
	var err error
	if in.idx, err = index.LoadFile(fx.indexPath); err != nil {
		return nil, err
	}
	storeDir := func(name string) string {
		if !o.workload.durable {
			return ""
		}
		return filepath.Join(dir, name)
	}
	for _, s := range []struct {
		dst  **serving.Server
		name string
	}{{&in.rtt, "rtt"}, {&in.handlerSrv, "handler"}, {&in.serving, "serving"}} {
		if *s.dst, err = serving.NewServer(in.idx, shippedConfig(o.workload, storeDir(s.name))); err != nil {
			in.close()
			return nil, err
		}
	}
	in.handler = in.handlerSrv.Handler()
	if in.store, err = kvstore.Open(kvstore.Options{
		Dir: storeDir("store"), TTL: 30 * time.Minute,
		Sync: kvstore.SyncInterval, SyncInterval: kvstore.DefaultSyncInterval,
	}); err != nil {
		in.close()
		return nil, err
	}
	if in.kernel, err = core.NewRecommender(in.idx, core.Params{M: 500, K: 500}); err != nil {
		in.close()
		return nil, err
	}
	variant := o.workload.qualityVariant
	if variant == "" {
		variant = "side"
	}
	in.quality = quality.New(quality.Options{Variant: variant, CatalogSize: in.idx.NumItems(), K: slot})
	in.line = in.quality.Line("knn")
	if in.listener, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		in.close()
		return nil, err
	}
	in.httpSrv = &http.Server{Handler: in.rtt.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go in.httpSrv.Serve(in.listener) // returns ErrServerClosed on close
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	// Sequential calls need no SLA timeout; a stall here is a measurement.
	if in.cl, err = client.New(client.Options{BaseURL: "http://" + in.listener.Addr().String(), DisableRetries: true,
		Timeout: 10 * time.Second, HTTPClient: &http.Client{Transport: tr}}); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *instances) close() {
	if in.httpSrv != nil {
		_ = in.httpSrv.Close() // nothing in flight: the run is sequential
	}
	for _, s := range []*serving.Server{in.rtt, in.handlerSrv, in.serving} {
		if s != nil {
			_ = s.Close() // memory-backed or scratch stores only
		}
	}
	if in.store != nil {
		_ = in.store.Close()
	}
	if in.idx != nil {
		_ = in.idx.Close()
	}
}

// counts are the kernel's work per request; they repeat exactly for a seed.
type counts struct {
	tailItems, postings, neighbors []float64
}

// tracedPass replays n requests of ps sequentially through every layer.
func tracedPass(in *instances, ps phaseStream, n, numItems int, clicks clickDrawer, tr *tracer, cnt *counts) error {
	ctx := context.Background()
	var (
		dec       fastjson.Dec
		body, out []byte
		kvBuf     []byte
		evolving  []sessions.ItemID
		enc       []byte
		req       serving.Request
		handled   serving.Response
	)
	for i := 0; i < n; i++ {
		r, _ := ps.at(i)
		key := ps.key(i)
		sreq := serving.Request{SessionKey: key, Item: r.Item, Consent: r.Consent}
		body = serving.EncodeRequest(body[:0], &sreq)
		hreq := httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(serving.IdempotencyKeyHeader, key+"-"+strconv.Itoa(i))
		rec := httptest.NewRecorder()

		root := tr.begin(spanRequest, -1)

		s := tr.begin(spanRTT, root)
		viaSocket, err := in.cl.Recommend(ctx, key, r.Item, r.Consent)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("traced request %d over loopback: %w", i, err)
		}

		s = tr.begin(spanHandler, root)
		in.handler.ServeHTTP(rec, hreq)
		tr.end(s)

		s = tr.begin(spanDecode, root)
		err = serving.DecodeRequest(&dec, body, &req)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("traced request %d: decode: %w", i, err)
		}

		s = tr.begin(spanRecommend, root)
		resp, err := in.serving.Recommend(req)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("traced request %d: recommend: %w", i, err)
		}

		// The store calls the server makes for one click: read and append
		// (with consent), or forget the history (without).
		if r.Consent {
			s = tr.begin(spanGet, root)
			raw, ok := in.store.GetAppend(key, kvBuf[:0])
			tr.end(s)
			evolving = evolving[:0]
			if ok {
				kvBuf = raw
				evolving = appendVarints(evolving, raw)
			}
			evolving = append(evolving, r.Item)
			if len(evolving) > maxStoredSession {
				evolving = evolving[len(evolving)-maxStoredSession:]
			}
			enc = appendVarintItems(enc[:0], evolving)
			s = tr.begin(spanPut, root)
			err = in.store.Put(key, enc)
			tr.end(s)
		} else {
			s = tr.begin(spanDelete, root)
			err = in.store.Delete(key)
			tr.end(s)
			evolving = append(evolving[:0], r.Item)
		}
		if err != nil {
			return fmt.Errorf("traced request %d: store: %w", i, err)
		}

		s = tr.begin(spanNeighbors, root)
		nb := in.kernel.NeighborSessions(evolving)
		tr.end(s)
		s = tr.begin(spanScore, root)
		in.kernel.ScoreNeighbors(nb, 2*slot+1)
		tr.end(s)
		if cnt != nil {
			tail := evolving
			if len(tail) > core.DefaultMaxSessionLength {
				tail = tail[len(tail)-core.DefaultMaxSessionLength:]
			}
			cnt.tailItems = append(cnt.tailItems, float64(len(tail)))
			cnt.postings = append(cnt.postings, float64(postingsOf(in.idx, tail)))
			cnt.neighbors = append(cnt.neighbors, float64(len(nb)))
		}

		s = tr.begin(spanExposure, root)
		id := in.quality.RecordExposure(in.line, resp.Items, evolving, key)
		tr.end(s)
		if r.HasNext && clicks(key, r, resp.Items) {
			s = tr.begin(spanAttribute, root)
			in.quality.Attribute(id, r.Next, false)
			tr.end(s)
		}

		s = tr.begin(spanEncode, root)
		out = serving.EncodeResponse(out[:0], &resp)
		tr.end(s)

		tr.end(root)

		// Every instance must have answered alike.
		if rec.Code != http.StatusOK {
			return fmt.Errorf("traced request %d: handler status %d", i, rec.Code)
		}
		if err := serving.DecodeResponse(&dec, rec.Body.Bytes(), &handled); err != nil {
			return fmt.Errorf("traced request %d: handler body: %w", i, err)
		}
		if err := validate(resp.Items, r.Item, numItems); err != nil {
			return fmt.Errorf("traced request %d: %w", i, err)
		}
		if !sameList(resp.Items, viaSocket.Items) || !sameList(resp.Items, handled.Items) {
			return fmt.Errorf("traced request %d: layer instances disagree on the list", i)
		}
	}
	return nil
}

// maxStoredSession is the server's cap on a stored session's length.
const maxStoredSession = 50

// clickDrawer reports whether the simulated user clicks the recorded next
// item in a served list.
type clickDrawer func(key string, r request, items []core.ScoredItem) bool

// postingsOf is the posting-list work of one query: the summed posting
// lengths of the distinct items in the kernel tail.
func postingsOf(idx *core.Index, tail []sessions.ItemID) int {
	n := 0
	for i, it := range tail {
		dup := false
		for _, prev := range tail[:i] {
			if prev == it {
				dup = true
				break
			}
		}
		if !dup {
			n += len(idx.Postings(it))
		}
	}
	return n
}

// appendVarints and appendVarintItems mirror the server's session-state
// encoding (varint item ids), so the store instance holds values of the
// same size as the server's.
func appendVarints(dst []sessions.ItemID, raw []byte) []sessions.ItemID {
	for len(raw) > 0 {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return dst
		}
		dst = append(dst, sessions.ItemID(v))
		raw = raw[n:]
	}
	return dst
}

func appendVarintItems(dst []byte, items []sessions.ItemID) []byte {
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(it))
	}
	return dst
}

// writeSpans writes the traced pass as CSV: request, span, parent, start
// and end in nanoseconds since the trace began.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,kind,parent,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", i, spanNames[s.kind], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRequests is the number of requests one traced pass replays; a
// thousand puts and kernel calls leave ten samples beyond their p99.
const tracedRequests = 2000

// runTraced reports the per-layer metrics: the server's own counters over
// an untraced fixed-rate phase, then the traced in-process replay and the
// ledger built from it.
func runTraced(o options) (*result, error) {
	res := newResult()
	dep, _, fixtures, err := setUp(o, setupRepeats)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			dep.srv.stop()
		}
	}()
	reqs := makeStream(dep.fx.test, o.workload.burst, o.workload.denyEvery, o.seed)
	d, err := newLoader(o, dep)
	if err != nil {
		return nil, err
	}
	fixedN := fixedSeconds(o.seconds) * fixedRate
	warm := d.runPhase("w", reqs, fixedRate, int(warmup.Seconds()*fixedRate), false)
	res.checkPhase("warm-up", warm)
	fp, err := d.measureFixed(dep, reqs, fixedN)
	if err != nil {
		return nil, err
	}
	res.checkPhase("fixed-rate phase", fp.phaseResult)
	dep.srv.stop()
	stopped = true
	res.attempted = len(fp.samples) + fp.trackCount()
	res.failed = fp.failed()
	if _, err := res.checkReference(o, dep, fp); err != nil {
		return nil, err
	}
	late := sortedCopy(lateness(fp.samples))
	served := delta(fp.before, fp.prom, "serenade_requests_total")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Index layer: build and save from each set-up, load timed here.
	var builds, saves, loads []float64
	for _, fx := range fixtures {
		builds = append(builds, float64(fx.build)/1e6)
		saves = append(saves, float64(fx.save)/1e6)
		t0 := time.Now()
		idx, err := index.LoadFile(fx.indexPath)
		if err != nil {
			return nil, err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
		idx.Close()
	}
	st, err := os.Stat(dep.fx.indexPath)
	if err != nil {
		return nil, err
	}

	// The traced in-process replay, then the same number of requests with
	// spans off for the overhead figure. A short untimed pass warms every
	// instance first.
	in, err := openInstances(o, dep.fx, filepath.Join(o.work, "traced"))
	if err != nil {
		return nil, err
	}
	defer in.close()
	cm := d.clicks
	variant := o.workload.qualityVariant
	clicks := func(key string, r request, items []core.ScoredItem) bool {
		return cm.Clicks(key, int(r.Step), variant, rank.RankOfScored(items, r.Next, 0))
	}
	off := &tracer{}
	if err := tracedPass(in, phaseStream{prefix: "tw", reqs: reqs}, tracedRequests/4, dep.fx.numItems, clicks, off, nil); err != nil {
		return nil, err
	}
	on := &tracer{on: true, base: time.Now(), spans: make([]span, 0, tracedRequests*(numSpanKinds-1))}
	cnt := &counts{}
	t0 := time.Now()
	if err := tracedPass(in, phaseStream{prefix: "t", reqs: reqs}, tracedRequests, dep.fx.numItems, clicks, on, cnt); err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	t0 = time.Now()
	if err := tracedPass(in, phaseStream{prefix: "u", reqs: reqs}, tracedRequests, dep.fx.numItems, clicks, off, nil); err != nil {
		return nil, err
	}
	plainWall := time.Since(t0)
	if err := writeSpans(filepath.Join(filepath.Dir(o.work), "spans-"+o.workload.name+".csv"), on.spans); err != nil {
		return nil, err
	}
	lt := collect(on.spans)
	led := buildLedger(lt, tracedRequests, o.workload.qualityVariant != "")

	b := lt.byKind
	res.set("edge.rtt_us", usMedian(b[spanRTT]), "us")
	socket := make([]time.Duration, len(b[spanRTT]))
	for i := range socket {
		socket[i] = b[spanRTT][i] - b[spanHandler][i]
	}
	res.set("edge.socket_us", usMedian(socket), "us")
	res.set("edge.handler_us", usMedian(b[spanHandler]), "us")
	res.set("edge.decode_us", usMedian(b[spanDecode]), "us")
	res.set("edge.encode_us", usMedian(b[spanEncode]), "us")
	res.set("serving.recommend_us", usMedian(b[spanRecommend]), "us")
	res.set("serving.self_us", usMedian(lt.servingSelf), "us")
	res.set("store.get_us", usMedian(b[spanGet]), "us")
	res.set("store.put_us", usMedian(b[spanPut]), "us")
	res.set("store.put_p99_us", usP99(b[spanPut]), "us")
	res.set("store.delete_us", usMedian(b[spanDelete]), "us")
	fsyncs := delta(fp.before, fp.prom, "serenade_store_fsyncs_total")
	res.set("store.fsync_ms", 1e3*ratio(delta(fp.before, fp.prom, "serenade_store_fsync_seconds_total"), fsyncs), "ms")
	res.set("store.fsync_batch", ratio(delta(fp.before, fp.prom, "serenade_store_fsync_batch_records_total"), fsyncs), "count")
	res.set("store.wal_bytes_per_req", ratio(delta(fp.before, fp.prom, "serenade_store_wal_bytes_total"), served), "B")
	res.set("kernel.neighbors_us", usMedian(b[spanNeighbors]), "us")
	res.set("kernel.neighbors_p99_us", usP99(b[spanNeighbors]), "us")
	res.set("kernel.score_us", usMedian(b[spanScore]), "us")
	res.set("kernel.tail_items", medianFloat(cnt.tailItems), "count")
	res.set("kernel.postings_per_query", medianFloat(cnt.postings), "count")
	res.set("kernel.neighbors_per_query", medianFloat(cnt.neighbors), "count")
	hits := delta(fp.before, fp.prom, "serenade_result_cache_hits_total") + delta(fp.before, fp.prom, "serenade_result_cache_coalesced_total")
	res.set("cache.hit_ratio", ratio(hits, hits+delta(fp.before, fp.prom, "serenade_result_cache_misses_total")), "ratio")
	res.set("batch.mean_size", ratio(delta(fp.before, fp.prom, "serenade_batcher_batched_requests_total"),
		delta(fp.before, fp.prom, "serenade_batcher_batches_total")), "count")
	res.set("workload.dup_tail_ratio", dupTailRatio(fp.ps, fixedN, fixedRate, dupWindow), "ratio")
	res.set("quality.exposure_us", usMedian(b[spanExposure]), "us")
	res.set("quality.attribute_us", usMedian(b[spanAttribute]), "us")
	res.set("index.build_ms", medianFloat(builds), "ms")
	res.set("index.save_ms", medianFloat(saves), "ms")
	res.set("index.load_ms", medianFloat(loads), "ms")
	res.set("index.bytes", float64(st.Size()), "B")
	res.set("runtime.alloc_bytes_per_req", ratio(delta(fp.before, fp.prom, "serenade_go_alloc_bytes_total"), served), "B")
	res.set("runtime.gc_pause_ms", 1e3*delta(fp.before, fp.prom, "serenade_go_gc_pause_seconds_total"), "ms")
	res.set("gen.late_p99_ms", ms(percentile(late, 0.99)), "ms")
	res.set("gen.sent_rps", float64(len(fp.samples))/fp.wall.Seconds(), "1/s")
	res.set("ledger.unexplained_pct", led.unexplainedPct, "%")
	res.set("trace.overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds(), "%")

	fmt.Printf("traced run: %d requests, %d spans; traced pass %.2fs, untraced %.2fs; root self (benchmark bookkeeping) median %.1f µs\n",
		tracedRequests, len(on.spans), tracedWall.Seconds(), plainWall.Seconds(), usMedian(lt.rootSelf))
	led.print()
	res.print()
	return res, nil
}
