// Command benchreport runs the hot-path benchmark suites (facade, per-stage
// cost, JPEG substrate) with -benchmem and writes a machine-readable
// BENCH_hotpath.json, so every PR's perf trajectory is tracked in-repo
// instead of in someone's scrollback.
//
// The report is no longer micro-benchmarks only: serving-level runs
// recorded by `go run ./cmd/p3load` in BENCH_serving.json (-serving) are
// merged into the written report, so one file carries both halves of the
// trajectory — hot-path cost and behavior under realistic traffic. The
// merged runs are additionally rolled up per scenario (mixed, shardkill,
// video, …) into a serving_summary section: run count plus the latest
// run's throughput and per-op p95/error numbers, so a scenario's
// trajectory — the photo mixes and the video frame-seek workload alike —
// is readable without digging through the raw run array.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchreport                 # writes BENCH_hotpath.json
//	go run ./cmd/benchreport -benchtime 2s -count 3 -out bench.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurements at one GOMAXPROCS setting.
// Repeated -count runs of the same benchmark appear as separate entries.
type Result struct {
	Name        string             `json:"name"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"b_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_hotpath.json document. Serving carries the
// accumulated cmd/p3load runs verbatim (the BENCH_serving.json "runs"
// array), merged in so the serving trajectory travels with the hot-path
// one.
type Report struct {
	GeneratedAt time.Time `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	GOOS        string    `json:"goos"`
	GOARCH      string    `json:"goarch"`
	// NumCPU is the host's core count; each Result carries the GOMAXPROCS
	// it ran at (the suite runs once per -gomaxprocs value, so sequential
	// cost and scaling are both on record).
	NumCPU         int               `json:"num_cpu"`
	GOMAXPROCSRuns []int             `json:"gomaxprocs_runs"`
	CPU            string            `json:"cpu,omitempty"`
	BenchRegexp    string            `json:"bench_regexp"`
	BenchTime      string            `json:"benchtime"`
	Results        []Result          `json:"results"`
	Serving        json.RawMessage   `json:"serving,omitempty"`
	ServingSummary []ScenarioSummary `json:"serving_summary,omitempty"`
}

// OpSummary condenses one operation of a serving run for the summary.
type OpSummary struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P95Ms  float64 `json:"p95_ms"`
	PerSec float64 `json:"throughput_per_s"`
}

// ScenarioSummary rolls up every accumulated run of one p3load scenario:
// how many runs the trajectory holds and the latest run's headline
// numbers, per operation (photo upload/download/calibrate and
// video_upload/video_download alike).
type ScenarioSummary struct {
	Scenario     string               `json:"scenario"`
	Runs         int                  `json:"runs"`
	LatestPerSec float64              `json:"latest_throughput_per_s"`
	LatestOps    map[string]OpSummary `json:"latest_ops,omitempty"`
	// Durability columns, present when the latest run recorded them:
	// measured storage overhead (disk bytes / logical bytes), post-run
	// repair convergence time, and the zero-data-loss verification result.
	LatestStorageOverhead float64 `json:"latest_storage_overhead,omitempty"`
	LatestRepairS         float64 `json:"latest_repair_s,omitempty"`
	LatestDataLoss        int     `json:"latest_data_loss_objects,omitempty"`
	LatestVerified        int     `json:"latest_verified_objects,omitempty"`
}

// benchLine matches `BenchmarkName-8   123   456 ns/op   1 MB/s ...`; the
// -N GOMAXPROCS suffix is stripped from the name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	bench := flag.String("bench", "^(BenchmarkFacade_|BenchmarkCost_|BenchmarkJPEG_|BenchmarkProxy_)", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "per-benchmark time passed to go test -benchtime")
	count := flag.Int("count", 1, "repetitions passed to go test -count")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "BENCH_hotpath.json", "output JSON path")
	serving := flag.String("serving", "BENCH_serving.json",
		"cmd/p3load trajectory file to merge into the report ('' = skip)")
	gomaxprocs := flag.String("gomaxprocs", "",
		"comma-separated GOMAXPROCS values to run the suite at (default \"1,NumCPU\")")
	flag.Parse()

	procsList, err := parseProcsList(*gomaxprocs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: -gomaxprocs: %v\n", err)
		os.Exit(1)
	}

	report := Report{
		GeneratedAt:    time.Now().UTC().Truncate(time.Second),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCSRuns: procsList,
		BenchRegexp:    *bench,
		BenchTime:      *benchtime,
	}
	for _, procs := range procsList {
		args := []string{
			"test", *pkg,
			"-run", "^$",
			"-bench", *bench,
			"-benchmem",
			"-benchtime", *benchtime,
			"-count", strconv.Itoa(*count),
		}
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		fmt.Fprintf(os.Stderr, "benchreport: GOMAXPROCS=%d go %s\n", procs, strings.Join(args, " "))
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: go test failed: %v\n%s\n", err, stdout.Bytes())
			os.Exit(1)
		}
		parsed := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			line = strings.TrimSpace(line)
			if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
				report.CPU = cpu
				continue
			}
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			iters, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				continue
			}
			r := Result{Name: m[1], GOMAXPROCS: procs, Iterations: iters}
			if err := parseMeasurements(m[3], &r); err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: skipping %q: %v\n", line, err)
				continue
			}
			report.Results = append(report.Results, r)
			parsed++
		}
		if parsed == 0 {
			fmt.Fprintf(os.Stderr, "benchreport: no benchmark results parsed at GOMAXPROCS=%d from:\n%s\n",
				procs, stdout.String())
			os.Exit(1)
		}
	}
	if *serving != "" {
		if runs, err := loadServingRuns(*serving); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v (continuing without serving runs)\n", *serving, err)
		} else if runs != nil {
			report.Serving = runs
			report.ServingSummary = summarizeServing(runs)
			fmt.Fprintf(os.Stderr, "benchreport: merged serving runs from %s (%d scenarios)\n",
				*serving, len(report.ServingSummary))
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %d results to %s\n", len(report.Results), *out)
}

// parseProcsList parses the -gomaxprocs comma list. Empty selects the
// default pair: 1 (the honest sequential cost, where pools run inline) and
// NumCPU (the scaling the host can actually deliver; one run on a
// single-CPU host). Duplicates are dropped preserving order.
func parseProcsList(s string) ([]int, error) {
	var vals []int
	if s == "" {
		vals = []int{1, runtime.NumCPU()}
	} else {
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad GOMAXPROCS value %q", f)
			}
			vals = append(vals, v)
		}
	}
	seen := map[int]bool{}
	out := vals[:0]
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// loadServingRuns reads a BENCH_serving.json document and returns its
// "runs" array, nil when the file does not exist (p3load has not run yet).
func loadServingRuns(path string) (json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc struct {
		Runs json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if len(doc.Runs) == 0 {
		return nil, nil
	}
	return doc.Runs, nil
}

// summarizeServing rolls the raw runs array up per scenario. Runs are
// assumed chronological (p3load appends), so the last run of each scenario
// is its latest state; scenarios appear in order of first occurrence.
func summarizeServing(raw json.RawMessage) []ScenarioSummary {
	var runs []struct {
		Config struct {
			Scenario string `json:"scenario"`
		} `json:"config"`
		TotalPerSec     float64              `json:"total_throughput_per_s"`
		Ops             map[string]OpSummary `json:"ops"`
		StorageOverhead float64              `json:"storage_overhead"`
		RepairS         float64              `json:"repair_s"`
		DataLoss        int                  `json:"data_loss_objects"`
		Verified        int                  `json:"verified_objects"`
	}
	if err := json.Unmarshal(raw, &runs); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: unparseable serving runs: %v\n", err)
		return nil
	}
	index := map[string]int{}
	var summaries []ScenarioSummary
	for _, run := range runs {
		i, ok := index[run.Config.Scenario]
		if !ok {
			i = len(summaries)
			index[run.Config.Scenario] = i
			summaries = append(summaries, ScenarioSummary{Scenario: run.Config.Scenario})
		}
		s := &summaries[i]
		s.Runs++
		s.LatestPerSec = run.TotalPerSec
		s.LatestOps = run.Ops
		s.LatestStorageOverhead = run.StorageOverhead
		s.LatestRepairS = run.RepairS
		s.LatestDataLoss = run.DataLoss
		s.LatestVerified = run.Verified
	}
	return summaries
}

// parseMeasurements consumes the "value unit value unit ..." tail of a
// benchmark line. The three standard units fill the typed fields; everything
// else (MB/s, custom b.ReportMetric units) lands in Metrics.
func parseMeasurements(tail string, r *Result) error {
	fields := strings.Fields(tail)
	if len(fields)%2 != 0 {
		return fmt.Errorf("odd measurement field count in %q", tail)
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return nil
}
