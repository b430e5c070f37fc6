// Command serenade-loadtest reproduces the Figure 3(b) load test: replayed
// traffic at a target rate against a pool of stateful replicas, reporting
// per-second request counts, latency percentiles and core usage.
//
//	serenade-loadtest -rps 1000 -duration 30s -replicas 2
//	serenade-loadtest -sweep                      # §7 core-usage scaling
//	serenade-loadtest -slo-sweep -slo-latency-p99 5ms   # burn rate vs RPS
//	serenade-loadtest -click-model -click-seed 17 -click-skew 'b=0.7'
//
// -slo-sweep additionally prints a `BENCHJSON slo_sweep <json>` line; piping
// the output through tools/benchjson captures the trajectory as the
// versioned BENCH_slo.json artifact.
//
// -click-model runs the online quality loop instead: one quality-enabled
// replica per -click-variants arm replays the labelled test workload while a
// seeded position-biased click model simulates feedback through POST /track,
// and the run prints the online-vs-offline MRR table plus a
// `BENCHJSON quality <json>` line (the BENCH_quality.json artifact). The
// click stream is a pure function of -click-seed and the (session, step,
// variant) identities, so a fixed seed reproduces the numbers exactly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"serenade/internal/experiments"
	"serenade/internal/loadgen"
)

func parseRates(raw string) []int {
	var rs []int
	for _, s := range strings.Split(raw, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad rate %q: %v", s, err)
		}
		rs = append(rs, v)
	}
	return rs
}

// parseSkew parses `name=mult,name=mult` per-variant CTR skews.
func parseSkew(raw string) map[string]float64 {
	if raw == "" {
		return nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(raw, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			log.Fatalf("bad -click-skew entry %q (want name=multiplier)", pair)
		}
		m, err := strconv.ParseFloat(val, 64)
		if err != nil || m <= 0 {
			log.Fatalf("bad -click-skew multiplier %q: %v", val, err)
		}
		out[name] = m
	}
	return out
}

// parseVariants splits a comma-separated arm list.
func parseVariants(raw string) []string {
	var out []string
	for _, v := range strings.Split(raw, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serenade-loadtest: ")

	var (
		rps      = flag.Int("rps", 1000, "target requests per second")
		duration = flag.Duration("duration", 15*time.Second, "test duration")
		replicas = flag.Int("replicas", 2, "stateful serving replicas")
		quick    = flag.Bool("quick", false, "use a small dataset")
		sweep    = flag.Bool("sweep", false, "run the core-usage scaling sweep instead")
		rates    = flag.String("rates", "100,200,400,600", "comma-separated rates for -sweep")
		perRate  = flag.Duration("per-rate", 5*time.Second, "duration per rate for -sweep")
		seed     = flag.Int64("seed", 0, "random seed override")
		cacheSz  = flag.Int("result-cache-size", 0, "replica single-flight result cache entries (0 disables)")
		cacheTTL = flag.Duration("result-cache-ttl", 0, "result cache entry lifetime (0 = serving default)")
		burst    = flag.Int("burst", 1, "replay each session under this many session keys (duplicate-heavy traffic)")
		sloSweep = flag.Bool("slo-sweep", false, "run the burn-rate-vs-RPS sweep instead (uses -rates and -per-rate)")
		sloP99   = flag.Duration("slo-latency-p99", 0, "replica latency objective; slower requests burn budget (0 = off, or 5ms for -slo-sweep)")
		sloErr   = flag.Float64("slo-error-budget", 0, "fraction of requests allowed to fail (0 = error objective off)")

		clickModel    = flag.Bool("click-model", false, "run the online quality loop instead (click simulation + online-vs-offline MRR table)")
		clickSeed     = flag.Int64("click-seed", 17, "click-model seed; the whole run is deterministic under a fixed seed")
		clickBase     = flag.Float64("click-base", 0, "rank-1 click propensity (0 = default 0.35)")
		clickDecay    = flag.Float64("click-pos-decay", 0, "multiplicative propensity decay per rank position (0 = default 0.85)")
		clickSkew     = flag.String("click-skew", "", "per-variant CTR skew, e.g. 'b=0.7,c=1.1' (unlisted arms are neutral)")
		clickVariants = flag.String("click-variants", "a,b", "comma-separated A/B arms to simulate")
		clickRounds   = flag.Int("click-rounds", 12, "workload replays per arm (more rounds tighten the IPW estimate)")
		clickSteps    = flag.Int("click-steps", 0, "cap on labelled steps per round (0 = all)")
	)
	flag.Parse()
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	cfg := experiments.LoadTestConfig{
		RPS:            *rps,
		Duration:       *duration,
		Replicas:       *replicas,
		CacheSize:      *cacheSz,
		CacheTTL:       *cacheTTL,
		Burst:          *burst,
		SLOLatencyP99:  *sloP99,
		SLOErrorBudget: *sloErr,
	}

	if *clickModel {
		res, err := experiments.QualityRun(experiments.QualityRunConfig{
			Variants: parseVariants(*clickVariants),
			Model: loadgen.ClickModel{
				Seed:        *clickSeed,
				Base:        *clickBase,
				PosDecay:    *clickDecay,
				VariantSkew: parseSkew(*clickSkew),
			},
			Rounds:   *clickRounds,
			MaxSteps: *clickSteps,
		}, opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintQualityRun(os.Stdout, res)
		// Machine-readable loop for tools/benchjson → BENCH_quality.json.
		raw, err := json.Marshal(res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("BENCHJSON quality %s\n", raw)
		return
	}

	if *sweep {
		rows, err := experiments.CoreScaling(parseRates(*rates), *perRate, opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintCoreScaling(os.Stdout, rows)
		return
	}

	if *sloSweep {
		rows, err := experiments.SLOSweep(parseRates(*rates), *perRate, cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintSLOSweep(os.Stdout, rows)
		// Machine-readable trajectory for tools/benchjson → BENCH_slo.json.
		raw, err := json.Marshal(rows)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("BENCHJSON slo_sweep %s\n", raw)
		return
	}

	res, err := experiments.LoadTest(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintLoadTest(os.Stdout, res)
}
