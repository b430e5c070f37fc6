// Command perfbench is the repository's socket-to-socket benchmark. It
// builds one synthetic fixture from its seed, starts the real
// serenade-server as a child process, and drives it over loopback HTTP with
// an open-loop generator timed from each request's scheduled send. With
// -trace 1 it instead reports per-layer costs from a traced, sequential,
// in-process replay of the same stream. See README.md for the workloads and
// metrics; run it through run.sh, which builds both binaries.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"serenade/client"
	"serenade/internal/core"
	"serenade/internal/loadgen"
	"serenade/internal/rank"
)

// workload is one traffic mix with the server flags it runs under.
type workload struct {
	name string
	// burst users click each recorded click in lockstep.
	burst int
	// denyEvery > 0 sends about one request in denyEvery without consent.
	denyEvery int
	// clicks POSTs every click the seeded click model draws to /track.
	clicks bool
	// durable runs the server with -store-dir on a fresh directory.
	durable bool
	// qualityVariant, when set, is passed as -quality-variant.
	qualityVariant string
}

var workloads = map[string]workload{
	"replay":   {name: "replay", burst: 1},
	"burst":    {name: "burst", burst: 4},
	"feedback": {name: "feedback", burst: 1, denyEvery: 4, clicks: true, durable: true, qualityVariant: "bench"},
}

// serverFlags are the only flags the server gets beyond its defaults.
func (w workload) serverFlags(indexPath, storeDir string) []string {
	f := []string{"-index", indexPath}
	if w.durable {
		f = append(f, "-store-dir", storeDir)
	}
	if w.qualityVariant != "" {
		f = append(f, "-quality-variant", w.qualityVariant)
	}
	return f
}

const (
	// fixedRate is the paper's §5.2.2 headline request rate.
	fixedRate = 1000
	// setupRepeats set-ups are timed per run; setup_s is their median.
	setupRepeats = 3
	warmup       = 2 * time.Second
	// stepWindows windows make one ladder step; the step's tail is their
	// median.
	stepWindows = 4
	// ladderRatio spaces the capacity ladder's rungs (at most 10% apart).
	ladderRatio = 1.05
	// sequentialRequests are sent one at a time for rtt_p50_ms.
	sequentialRequests = 3000
	// drainPause follows a missed ladder step, so a backlog it left does
	// not spill into the next.
	drainPause = 300 * time.Millisecond
	// dupWindow is the server's default result-cache TTL.
	dupWindow = 5 * time.Second
)

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	server   string
	work     string
	workers  int
}

func main() {
	var (
		name    = flag.String("workload", "", "replay | burst | feedback")
		seed    = flag.Int64("seed", 1, "fixture and stream seed")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		server  = flag.String("server", filepath.Join(".bench_build", "serenade-server"), "serenade-server binary built from the tree under test")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for fixtures, stores and logs")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown -workload %q (replay, burst, feedback)", *name)
	}
	if *seconds < 1 {
		fatalf("-seconds must be positive")
	}
	if _, err := os.Stat(*server); err != nil {
		fatalf("server binary: %v", err)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	o := options{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		server: *server, work: dir, workers: runtime.NumCPU(),
	}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runEndToEnd(o)
	}
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", dir, rmErr)
	}
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res.out())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's verdict and metrics, printed as the last output line.
type result struct {
	correct   bool
	attempted int
	failed    int
	names     []string
	metrics   map[string]metric
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// finding marks the run incorrect and says why.
func (r *result) finding(format string, args ...any) {
	r.correct = false
	fmt.Printf("INCORRECT: "+format+"\n", args...)
}

func (r *result) out() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// print writes every metric by name and unit, in the order they were set.
func (r *result) print() {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// deployment is a running server over a fixture.
type deployment struct {
	fx  *fixture
	srv *child
}

// setUp runs repeats full set-ups (fixture generation, index build and
// save, server start until /healthz answers) and keeps the last server
// running. It returns each set-up's CPU time, which the host's steal does
// not inflate: the benchmark's own CPU for the fixture and the index plus
// the server's CPU until it answered. The fixtures of every set-up are
// returned as well.
func setUp(o options, repeats int) (*deployment, []float64, []*fixture, error) {
	var times, walls []float64
	var fixtures []*fixture
	var d *deployment
	for k := 0; k < repeats; k++ {
		if d != nil {
			d.srv.stop()
		}
		dir := filepath.Join(o.work, "setup-"+strconv.Itoa(k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		cpu0, err := processCPU(os.Getpid())
		if err != nil {
			return nil, nil, nil, err
		}
		fx, err := buildFixture(o.seed, dir)
		if err != nil {
			return nil, nil, nil, err
		}
		cpu1, err := processCPU(os.Getpid())
		if err != nil {
			return nil, nil, nil, err
		}
		srv, err := startServer(o.server, filepath.Join(dir, "server.log"),
			o.workload.serverFlags(fx.indexPath, filepath.Join(dir, "store")))
		if err != nil {
			return nil, nil, nil, err
		}
		srvCPU, err := processCPU(srv.cmd.Process.Pid)
		if err != nil {
			srv.stop()
			return nil, nil, nil, err
		}
		times = append(times, (cpu1 - cpu0 + srvCPU).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
		fixtures = append(fixtures, fx)
		d = &deployment{fx: fx, srv: srv}
	}
	fmt.Printf("set-ups: CPU %.3v s, wall %.3v s\n", times, walls)
	return d, times, fixtures, nil
}

// loader sends one workload's requests to a deployment through the client
// package, over keep-alive connections, one per sending goroutine.
type loader struct {
	w        workload
	cl       *client.Client
	numItems int
	clicks   loadgen.ClickModel
	workers  int
}

func newLoader(o options, d *deployment) (*loader, error) {
	tr := &http.Transport{
		MaxIdleConns:        o.workers,
		MaxIdleConnsPerHost: o.workers,
		MaxConnsPerHost:     o.workers,
		DisableCompression:  true,
	}
	// Retries off; Timeout 0 keeps the client's 50 ms SLA timeout.
	cl, err := client.New(client.Options{BaseURL: d.srv.base, DisableRetries: true, HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		return nil, err
	}
	return &loader{w: o.workload, cl: cl, numItems: d.fx.numItems, clicks: loadgen.ClickModel{Seed: o.seed}, workers: o.workers}, nil
}

// phaseResult is what one generator phase produced.
type phaseResult struct {
	ps      phaseStream
	rate    float64
	samples []sample
	wall    time.Duration
	// lists holds each served list when kept for the reference check.
	lists [][]core.ScoredItem
	// track holds the /track latency of request i's follow-up click (0 when
	// it drew none, missed when the click failed).
	track    []time.Duration
	invalid  atomic.Int64
	mu       sync.Mutex
	firstErr string
}

func (p *phaseResult) note(i int, err error) {
	p.mu.Lock()
	if p.firstErr == "" {
		p.firstErr = fmt.Sprintf("request %d: %v", i, err)
	}
	p.mu.Unlock()
}

// failed counts recommend and track failures.
func (p *phaseResult) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.OK {
			n++
		}
	}
	for _, t := range p.track {
		if t == missed {
			n++
		}
	}
	return n
}

func (p *phaseResult) trackCount() int {
	n := 0
	for _, t := range p.track {
		if t != 0 {
			n++
		}
	}
	return n
}

func newPhase(prefix string, reqs []request, rate float64, n int, keepLists bool) *phaseResult {
	p := &phaseResult{ps: phaseStream{prefix: prefix, reqs: reqs}, rate: rate, track: make([]time.Duration, n)}
	if keepLists {
		p.lists = make([][]core.ScoredItem, n)
	}
	return p
}

// runPhase sends n requests of the stream at rate under a fresh key prefix.
func (d *loader) runPhase(prefix string, reqs []request, rate float64, n int, keepLists bool) *phaseResult {
	p := newPhase(prefix, reqs, rate, n, keepLists)
	g := &openLoop{
		Rate: rate, N: n, Workers: d.workers, Prev: p.ps.prev, Clock: wallClock{},
		Send: func(i int) outcome { return d.send(p, i) },
	}
	t0 := time.Now()
	p.samples = g.run()
	p.wall = time.Since(t0)
	return p
}

// runSequential sends n requests one at a time, each as soon as the last
// was answered: the unloaded round trip a page view pays. A stall of the
// machine slows only the request in flight, with no queue behind it, so
// its median moves far less with the host than the open-loop figures.
func (d *loader) runSequential(prefix string, reqs []request, n int) *phaseResult {
	p := newPhase(prefix, reqs, 0, n, false)
	p.samples = make([]sample, n)
	t0 := time.Now()
	for i := range p.samples {
		sent := time.Now()
		out := d.send(p, i)
		p.samples[i] = sample{Lat: out.Done.Sub(sent), OK: out.OK}
		if !out.OK {
			p.samples[i].Lat = missed
		}
	}
	p.wall = time.Since(t0)
	return p
}

// send makes request i of a phase: the recommend call, its validation and,
// on click workloads, the follow-up click the model draws.
func (d *loader) send(p *phaseResult, i int) outcome {
	ctx := context.Background()
	r, _ := p.ps.at(i)
	key := p.ps.key(i)
	resp, err := d.cl.Recommend(ctx, key, r.Item, r.Consent)
	done := time.Now()
	if err != nil {
		p.note(i, err)
		return outcome{Done: done}
	}
	if err := validate(resp.Items, r.Item, d.numItems); err != nil {
		p.invalid.Add(1)
		p.note(i, err)
		return outcome{Done: done}
	}
	if p.lists != nil {
		p.lists[i] = resp.Items
	}
	if d.w.clicks {
		rk := rank.RankOfScored(resp.Items, r.Next, 0)
		if r.HasNext && d.clicks.Clicks(key, int(r.Step), d.w.qualityVariant, rk) {
			t0 := time.Now()
			tr, err := d.cl.Track(ctx, key, resp.RecommendationID, r.Next, "click")
			switch {
			case err != nil:
				p.track[i] = missed
				p.note(i, err)
			case tr.Outcome != "attributed":
				p.track[i] = missed
				p.invalid.Add(1)
				p.note(i, fmt.Errorf("click outcome %q, want attributed", tr.Outcome))
			default:
				p.track[i] = time.Since(t0)
			}
		}
	}
	return outcome{OK: true, Done: done}
}

// fixedPhase is the fixed-rate measurement with the server's CPU time and
// metric deltas taken around it.
type fixedPhase struct {
	*phaseResult
	cores        float64
	stealPct     float64
	before, prom promSample
}

func (d *loader) measureFixed(dep *deployment, reqs []request, n int) (*fixedPhase, error) {
	ctx := context.Background()
	before, err := dep.srv.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	cpu0, err := dep.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	total0, steal0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	p := d.runPhase("f", reqs, fixedRate, n, true)
	cpu1, err := dep.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	total1, steal1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	after, err := dep.srv.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	fp := &fixedPhase{phaseResult: p, cores: (cpu1 - cpu0).Seconds() / p.wall.Seconds(), before: before, prom: after}
	if total1 > total0 {
		fp.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	return fp, nil
}

// checkPhase folds a phase's failures and invalid responses into the result.
func (r *result) checkPhase(label string, p *phaseResult) {
	if n := p.invalid.Load(); n > 0 {
		r.finding("%s: %d invalid responses (first: %s)", label, n, p.firstErr)
	}
}

// checkReference compares the fixed phase with the in-process reference
// and returns the served lists' MRR@20.
func (r *result) checkReference(o options, dep *deployment, fp *fixedPhase) (float64, error) {
	mismatch, mrrServed, mrrRef, err := referenceCheck(dep.fx.indexPath, o.workload, fp.ps, fp.lists)
	if err != nil {
		return 0, err
	}
	r.failed += mismatch
	if mismatch > 0 {
		r.finding("%d of %d served lists differ from the in-process reference", mismatch, len(fp.lists))
	}
	if mrrServed != mrrRef {
		r.finding("mrr_at_20 %.6f differs from the in-process reference %.6f", mrrServed, mrrRef)
	}
	fmt.Printf("reference: %d lists compared, %d mismatches; MRR@20 served %.6f, reference %.6f\n",
		len(fp.lists), mismatch, mrrServed, mrrRef)
	return mrrServed, nil
}

// runEndToEnd is the untraced run: set-up, warm-up, the fixed-rate phase,
// the sequential phase, the capacity ladder, then the reference check.
func runEndToEnd(o options) (*result, error) {
	res := newResult()
	dep, setups, _, err := setUp(o, setupRepeats)
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
	fixedSecs := fixedSeconds(o.seconds)
	fmt.Printf("workload %s seed %d: %d requests per pass, %d sending goroutines, fixed phase %ds at %d req/s\n",
		o.workload.name, o.seed, len(reqs), o.workers, fixedSecs, fixedRate)

	warm := d.runPhase("w", reqs, fixedRate, int(warmup.Seconds()*fixedRate), false)
	res.checkPhase("warm-up", warm)

	fp, err := d.measureFixed(dep, reqs, fixedSecs*fixedRate)
	if err != nil {
		return nil, err
	}
	res.checkPhase("fixed-rate phase", fp.phaseResult)
	// The peak is taken at the headline rate: how far the ladder overloads
	// the server differs from run to run.
	rss, err := dep.srv.peakRSS()
	if err != nil {
		return nil, err
	}
	lats := latencies(fp.samples)
	p90, ok := windowed(lats, 0.9)
	p99, _ := windowed(lats, 0.99)
	if !ok {
		return nil, fmt.Errorf("fixed phase has %d samples, fewer than one window", len(lats))
	}
	res.attempted = len(fp.samples) + fp.trackCount()
	res.failed = fp.failed()

	seq := d.runSequential("s", reqs, sequentialRequests)
	res.checkPhase("sequential phase", seq)
	res.attempted += len(seq.samples) + seq.trackCount()
	res.failed += seq.failed()
	seqLats := sortedCopy(latencies(seq.samples))

	// Rung 0 of the ladder is the fixed-rate phase itself. A step lasts as
	// long as its requests take at the rung's rate; the ladder gets what the
	// other phases left of the measured seconds.
	lad := ladder{Base: fixedRate, Ratio: ladderRatio}
	left := time.Duration(o.seconds-fixedSecs)*time.Second - warmup - seq.wall
	step := 0
	best, found := searchCapacity(func(k int) bool {
		p := fp.phaseResult
		if k != 0 {
			p = d.runPhase("l"+strconv.Itoa(step)+"-", reqs, lad.rate(k), stepWindows*window, false)
			step++
			res.checkPhase("ladder step", p)
		}
		v := paperSLO.judge(latencies(p.samples), lateness(p.samples))
		sl := sortedCopy(latencies(p.samples))
		fmt.Printf("  ladder %7.0f req/s: n=%d p50=%.3fms windowed p90=%.3fms p99=%.3fms fail=%.4f late-growing=%v -> %v\n",
			p.rate, len(sl), ms(percentile(sl, 0.5)), ms(v.Tail), ms(percentile(sl, 0.99)), v.FailRatio, v.LateGrowing, verdict(v.Met))
		if !v.Met && k != 0 {
			time.Sleep(drainPause)
		}
		return v.Met
	}, func(k int) bool {
		dur := time.Duration(float64(stepWindows*window) / lad.rate(k) * float64(time.Second))
		if dur > left {
			return false
		}
		left -= dur + drainPause
		return true
	})
	capacity := 0.0
	if found {
		capacity = lad.rate(best)
	}
	dep.srv.stop()
	stopped = true

	sorted := sortedCopy(lats)
	fmt.Printf("fixed-rate phase: n=%d attempted=%d failed=%d fail_ratio=%.5f track posts=%d machine steal %.1f%%\n",
		len(lats), res.attempted, res.failed, float64(res.failed)/float64(res.attempted), fp.trackCount(), fp.stealPct)
	if q, ok := highestSupported(len(lats)); ok {
		fmt.Printf("  whole phase: p%g = %.3f ms, p99 = %.3f ms; windowed over %d windows: p90 = %.3f ms, p99_ms = %.3f ms\n",
			q*100, ms(percentile(sorted, q)), ms(percentile(sorted, 0.99)), len(lats)/window, ms(p90), ms(p99))
	}

	// Printed, not gated: on a small shared VM these follow the host's CPU
	// steal more than the server (see README.md).
	fmt.Printf("open loop at %d req/s: p50_ms %.4f ms; capacity_rps %.1f 1/s\n",
		fixedRate, ms(percentile(sorted, 0.5)), capacity)

	res.set("setup_s", medianFloat(setups), "s")
	res.set("rtt_p50_ms", ms(percentile(seqLats, 0.5)), "ms")
	res.set("cores", fp.cores, "cores")
	res.set("rss_mb", rss, "MiB")
	mrr, err := res.checkReference(o, dep, fp)
	if err != nil {
		return nil, err
	}
	res.set("mrr_at_20", mrr, "ratio")
	res.set("success_ratio", 1-float64(res.failed)/float64(res.attempted), "ratio")
	if o.workload.clicks {
		tl := nonZero(fp.track)
		if len(tl) > 0 {
			q, _ := highestSupported(len(tl))
			fmt.Printf("track: n=%d p50=%.3fms p%g=%.3fms (track_p99_ms %.3f)\n", len(tl),
				ms(percentile(tl, 0.5)), q*100, ms(percentile(tl, q)), ms(percentile(tl, 0.99)))
		}
	}
	fmt.Printf("sequential phase: n=%d p10=%.3fms p25=%.3fms p50=%.3fms p99=%.3fms in %.2fs\n",
		len(seqLats), ms(percentile(seqLats, 0.1)), ms(percentile(seqLats, 0.25)), ms(percentile(seqLats, 0.5)), ms(percentile(seqLats, 0.99)), seq.wall.Seconds())
	res.print()
	return res, nil
}

// fixedSeconds is the fixed-rate phase's share of the measured seconds, a
// third; the warm-up, the sequential phase and the ladder take the rest.
func fixedSeconds(seconds int) int {
	return max(2, seconds/3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func verdict(met bool) string {
	if met {
		return "met"
	}
	return "missed"
}

func nonZero(xs []time.Duration) []time.Duration {
	var out []time.Duration
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return sortedCopy(out)
}
