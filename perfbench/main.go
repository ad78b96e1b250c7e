// Command perfbench is the repository's benchmark: it generates seeded
// GDELT inputs, drives the system the way its users do (HTTP queries over
// loopback, a live feed folded into the append log), checks every answer
// and prints its metrics as one JSON line.
//
//	perfbench --workload scan|hot|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line carries the end-to-end metrics. With
// --trace 1 the run is repeated with spans recorded around the calls into
// each layer, the spans are written to .bench_build/perfbench/, and the
// last line carries the per-layer metrics with the tracing overhead. Run it
// from the repository root through perfbench/run.sh, which builds it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run writes: inputs, logs, span files.
const outDir = ".bench_build/perfbench"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is what one pass of a workload measured.
type pass struct {
	attempted, failed int64
	firstErr          error
	e2e               map[string]metric
	layers            map[string]metric
	report            map[string]any
	spans             []Span
}

func newPass() *pass {
	return &pass{e2e: map[string]metric{}, layers: map[string]metric{}, report: map[string]any{}}
}

// fail records a failed operation.
func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch for this run's inputs and logs
}

var workloads = map[string]func(config) (*pass, error){
	"scan":   func(c config) (*pass, error) { return runServing(c, false) },
	"hot":    func(c config) (*pass, error) { return runServing(c, true) },
	"ingest": runIngest,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "scan, hot or ingest")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 10, "approximate length of one measured pass")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload scan|hot|ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	c.trace = trace == 1
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fatal(err)
	}
	c.dir = dir
	p, err := run(c)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}

	p.report["host"] = host(c)
	p.report["workload"] = c.workload
	if p.firstErr != nil {
		p.report["first_failure"] = p.firstErr.Error()
	}
	if c.trace {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
		if err := writeSpans(path, p.spans); err != nil {
			fatal(fmt.Errorf("writing spans: %w", err))
		}
		p.report["span_file"] = path
		p.report["spans"] = len(p.spans)
	}
	rep, err := json.Marshal(map[string]any{"report": p.report})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(rep))

	res := result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: p.e2e}
	if c.trace {
		res.Metrics = p.layers
	}
	if err := checkNames(res.Metrics, c.trace); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// phase logs the end of a run phase to standard error, with the time
// since the run started.
func phase(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs  %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

var runStart = time.Now()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// checkNames makes sure a result carries exactly the declared metrics.
func checkNames(m map[string]metric, trace bool) error {
	want := e2eNames
	if trace {
		want = layerNames()
	}
	if len(m) != len(want) {
		return fmt.Errorf("internal: %d metrics reported, %d declared", len(m), len(want))
	}
	for _, n := range want {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("internal: metric %s not reported", n)
		}
	}
	return nil
}

// e2eNames are the end-to-end metrics every untraced run reports.
var e2eNames = []string{"setup_s", "qps", "latency_p50_ms", "latency_p99_ms", "heap_mb"}

// host records where and on what a run was measured. The checkout carries
// no git metadata, so the commit is the build's VCS stamp when there is
// one and otherwise a digest of the module's Go sources.
func host(c config) map[string]any {
	h := map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h["commit"] = s.Value
			}
		}
	}
	if _, ok := h["commit"]; !ok {
		if sum, err := sourceDigest("."); err == nil {
			h["commit"] = "src-sha256:" + sum
		}
	}
	return h
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// dot-directories) in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
