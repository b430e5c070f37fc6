package serenade_test

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its experiment via internal/experiments (Quick sizes, so that
// `go test -bench=. -benchmem` completes in minutes) and reports the
// headline quantity as custom metrics. Full-size runs are available through
// the cmd/ binaries; measured-vs-paper numbers live in EXPERIMENTS.md.

import (
	"io"
	"testing"
	"time"

	"serenade/internal/experiments"
)

var benchOpts = experiments.Options{Quick: true, Seed: 1}

// BenchmarkTable1DatasetStats regenerates the Table 1 dataset statistics.
func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintTable1(io.Discard, rows)
			b.ReportMetric(float64(len(rows)), "datasets")
		}
	}
}

// BenchmarkSec511PredictionQuality regenerates the §5.1.1 model comparison
// (VMIS-kNN vs GRU4Rec, NARM, STAMP, legacy CF) and reports VMIS-kNN's
// MRR@20 and its margin over the best neural baseline.
func BenchmarkSec511PredictionQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Quality(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var vmis, bestNeural float64
			for _, r := range rows {
				switch r.Model {
				case "VMIS-kNN":
					vmis = r.Report.MRR
				case "GRU4Rec", "NARM", "STAMP":
					if r.Report.MRR > bestNeural {
						bestNeural = r.Report.MRR
					}
				}
			}
			b.ReportMetric(vmis, "vmis-mrr@20")
			b.ReportMetric(bestNeural, "best-neural-mrr@20")
		}
	}
}

// BenchmarkFig2HyperparameterGrid regenerates the Figure 2 sensitivity
// sweep over (m, k) and reports the best MRR@20 found.
func BenchmarkFig2HyperparameterGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Grid("retailrocket-sim", benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best := 0.0
			for _, c := range cells {
				if c.MRR > best {
					best = c.MRR
				}
			}
			b.ReportMetric(best, "best-mrr@20")
			b.ReportMetric(float64(len(cells)), "grid-cells")
		}
	}
}

// BenchmarkFig3aImplementations regenerates the Figure 3(a) top comparison
// of implementation design points and reports VMIS-kNN's speedup over the
// two-phase VS-Scan baseline at the p90.
func BenchmarkFig3aImplementations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ImplComparison(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var scanP90, vmisP90 time.Duration
			for _, r := range rows {
				switch r.Impl {
				case "VS-Scan":
					scanP90 = r.P90
				case "VMIS-kNN":
					vmisP90 = r.P90
				}
			}
			if vmisP90 > 0 {
				b.ReportMetric(float64(scanP90)/float64(vmisP90), "speedup-vs-scan-p90")
			}
			b.ReportMetric(float64(vmisP90.Microseconds()), "vmis-p90-us")
		}
	}
}

// BenchmarkFig3aMicrobenchVariants regenerates the Figure 3(a) bottom
// microbenchmark (VS-kNN vs VMIS-kNN-no-opt vs VMIS-kNN) and reports the
// speedups at the largest m.
func BenchmarkFig3aMicrobenchVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Micro(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var vs, noopt, opt, merge time.Duration
			maxM := 0
			for _, r := range rows {
				if r.M > maxM {
					maxM = r.M
				}
			}
			for _, r := range rows {
				if r.M != maxM {
					continue
				}
				switch r.Variant {
				case "VS-kNN":
					vs = r.Median
				case "VMIS-kNN-no-opt":
					noopt = r.Median
				case "VMIS-kNN":
					opt = r.Median
				case "VMIS-kNN-merge":
					merge = r.Median
				}
			}
			if opt > 0 {
				b.ReportMetric(float64(vs)/float64(opt), "speedup-vs-vsknn")
				b.ReportMetric(float64(noopt)/float64(opt), "speedup-vs-noopt")
			}
			if merge > 0 {
				b.ReportMetric(float64(opt)/float64(merge), "merge-speedup-vs-heap")
			}
		}
	}
}

// BenchmarkFig3bLoadTest regenerates a short Figure 3(b) load test against
// two stateful replicas and reports the p90 latency and achieved rate.
func BenchmarkFig3bLoadTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LoadTest(experiments.LoadTestConfig{
			RPS:      1000,
			Duration: 3 * time.Second,
			Replicas: 2,
		}, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.AchievedRPS, "req/s")
			b.ReportMetric(float64(res.Total.Percentile(90).Microseconds()), "p90-us")
			b.ReportMetric(float64(res.Total.Percentile(99.5).Microseconds()), "p99.5-us")
		}
	}
}

// BenchmarkFig3cABTest regenerates the §5.2.3 / Figure 3(c) A/B simulation
// and reports the slot-engagement lifts of both Serenade variants.
func BenchmarkFig3cABTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ABTest(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range res.Comparisons {
				switch c.Arm {
				case "serenade-hist":
					b.ReportMetric(c.Slot1LiftPct, "hist-lift-%")
				case "serenade-recent":
					b.ReportMetric(c.Slot1LiftPct, "recent-lift-%")
				}
			}
			b.ReportMetric(float64(res.Latency.Total().Percentile(90).Microseconds()), "p90-us")
		}
	}
}

// BenchmarkSec7Extensions regenerates the future-work ablations: compressed
// index footprint/latency and incremental maintenance throughput.
func BenchmarkSec7Extensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Extensions(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.RawBytes)/float64(res.CompressedBytes), "compression-ratio")
			b.ReportMetric(res.AppendsPerSec, "appends/s")
		}
	}
}

// BenchmarkSec42KVStoreLatency regenerates the §4.2 session-store
// microbenchmark (paper: RocksDB p99 read 5µs, write 18µs).
func BenchmarkSec42KVStoreLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.KVBench(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ReadP99.Nanoseconds())/1e3, "read-p99-us")
			b.ReportMetric(float64(res.WriteP99.Nanoseconds())/1e3, "write-p99-us")
		}
	}
}

// BenchmarkSec523CoreScaling regenerates the core-usage-vs-rate observation
// of §5.2.3/§7 and reports the cores consumed at the highest rate.
func BenchmarkSec523CoreScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CoreScaling([]int{200, 400}, 2*time.Second, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Cores, "cores-at-max-rate")
			b.ReportMetric(last.AchievedRPS, "req/s")
		}
	}
}
