// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable benchmark record and maintains a trajectory of runs:
// each invocation appends one record — run metadata plus the parsed
// measurements — to the -out file instead of overwriting it, so
// regressions stay diagnosable across commits. The raw lines are echoed
// to stderr so the run stays observable while the file is captured:
//
//	go test -run '^$' -bench 'BenchmarkF2.*' -benchmem . | benchjson -out BENCH.json
//
// Without -out the single record is written to stdout. Custom metrics
// emitted via b.ReportMetric (e.g. "p99-ns/op") are preserved under the
// entry's "extra" map. A benchmark reported more than once (-count=N)
// is recorded as the per-metric median over its lines, with the number
// of lines in "samples". A pre-trajectory -out file holding a bare
// name→entry map is converted to a one-record trajectory on first
// append.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark measurement.
type Entry struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units, keyed by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Samples is the number of result lines the entry is the median
	// of; omitted when there was one.
	Samples int `json:"samples,omitempty"`
}

// Meta identifies the environment of one benchmark run. GOMAXPROCS and
// NumCPU matter most here: the parallel build/retrieval numbers are only
// comparable between runs with the same effective core budget.
type Meta struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitSHA     string `json:"git_sha,omitempty"`
	Note       string `json:"note,omitempty"`
}

// Record is one run: its environment and its measurements.
type Record struct {
	Meta       Meta             `json:"meta"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "trajectory file to append this run's record to (stdout if empty)")
	note := flag.String("note", "", "free-form note stored in the record's metadata")
	flag.Parse()

	rec := Record{Meta: collectMeta(*note), Benchmarks: make(map[string]Entry)}
	samples := make(map[string][]Entry)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if name, e, ok := parseBenchLine(line); ok {
			samples[name] = append(samples[name], e)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	for name, es := range samples {
		rec.Benchmarks[name] = medianEntry(es)
	}

	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatal(err)
		}
		return
	}
	trajectory, err := loadTrajectory(*out)
	if err != nil {
		fatal(err)
	}
	trajectory = append(trajectory, rec)
	buf, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended record %d to %s\n", len(trajectory), *out)
}

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/w=4-8  200  31415 ns/op  99 p99-ns/op  2048 B/op  12 allocs/op
//
// into its entry. Unknown units land in Extra, which is how
// b.ReportMetric values survive.
func parseBenchLine(line string) (string, Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Entry{}, false
	}
	name := fields[0]
	// Strip the trailing -GOMAXPROCS tag go test appends to the name.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return "", Entry{}, false
	}
	e := Entry{Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp, seen = v, true
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default:
			if e.Extra == nil {
				e.Extra = make(map[string]float64)
			}
			e.Extra[unit] = v
		}
	}
	return name, e, seen
}

// medianEntry folds the result lines of one benchmark into one entry:
// each metric is the median of its values over the lines that report it
// (the mean of the middle two for an even count), so no sample is
// silently dropped and one outlier run does not move the record.
func medianEntry(es []Entry) Entry {
	if len(es) == 1 {
		return es[0]
	}
	pick := func(get func(Entry) (float64, bool)) float64 {
		var vs []float64
		for _, e := range es {
			if v, ok := get(e); ok {
				vs = append(vs, v)
			}
		}
		return median(vs)
	}
	out := Entry{
		Iterations:  int(pick(func(e Entry) (float64, bool) { return float64(e.Iterations), true })),
		NsPerOp:     pick(func(e Entry) (float64, bool) { return e.NsPerOp, true }),
		BytesPerOp:  pick(func(e Entry) (float64, bool) { return e.BytesPerOp, true }),
		AllocsPerOp: pick(func(e Entry) (float64, bool) { return e.AllocsPerOp, true }),
		Samples:     len(es),
	}
	for _, e := range es {
		for unit := range e.Extra {
			if _, done := out.Extra[unit]; done {
				continue
			}
			if out.Extra == nil {
				out.Extra = make(map[string]float64)
			}
			out.Extra[unit] = pick(func(e Entry) (float64, bool) { v, ok := e.Extra[unit]; return v, ok })
		}
	}
	return out
}

// median returns the median of vs (0 for none); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// collectMeta gathers the run environment. The git SHA is best-effort:
// benchmarks may run from an exported tree.
func collectMeta(note string) Meta {
	m := Meta{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       note,
	}
	if sha, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(sha))
	}
	return m
}

// preMetadataNote tags trajectory records that predate run metadata, so
// downstream tooling can tell "environment unknown" apart from a record
// whose collection merely failed.
const preMetadataNote = "pre-metadata"

// loadTrajectory reads an existing -out file: a record array, or the
// legacy bare name→entry map which becomes a single record. A missing
// file is an empty trajectory. Records without metadata — the legacy
// map, or array records written before Meta existed — are tagged with
// the pre-metadata note.
func loadTrajectory(path string) ([]Record, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var trajectory []Record
	if err := json.Unmarshal(buf, &trajectory); err == nil {
		return tagLegacy(trajectory), nil
	}
	var legacy map[string]Entry
	if err := json.Unmarshal(buf, &legacy); err == nil {
		return tagLegacy([]Record{{Benchmarks: legacy}}), nil
	}
	return nil, fmt.Errorf("%s: neither a record array nor a legacy benchmark map", path)
}

// tagLegacy marks metadata-less records (no date, no CPU count) with the
// pre-metadata note, leaving annotated records untouched.
func tagLegacy(trajectory []Record) []Record {
	for i := range trajectory {
		m := &trajectory[i].Meta
		if m.Date == "" && m.NumCPU == 0 && m.Note == "" {
			m.Note = preMetadataNote
		}
	}
	return trajectory
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
