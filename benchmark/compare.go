package main

// -compare A B: applies BENCHMARK.json's bounds to two sets of results.
// A side is one result file or a directory of them (several runs of
// one commit); with several runs a metric whose run-to-run spread
// exceeds its bound is reported as unresolved, not as unchanged.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json that -compare reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadSide(path string) ([]resultFile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result-*.json files", path)
	}
	var out []resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// values collects one metric of one workload over a side's runs.
func values(side []resultFile, workload, name string, perLayer bool) []float64 {
	var xs []float64
	for _, rf := range side {
		section := rf.Workloads[workload].EndToEnd
		if perLayer {
			section = rf.Workloads[workload].PerLayer
		}
		if v, ok := section[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// verdict classifies B against A for one metric: "ok", "worse",
// "unresolved", or "-" for a per-layer metric that has no bound.
func verdict(m metric, perLayer bool, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	if m.exact {
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return "worse"
			}
		}
		return "ok"
	}
	if perLayer {
		return "-"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound {
		// Too noisy to call, unless every run of B beats every run of A.
		lo, hi := b, a
		if m.Better == "higher" {
			lo, hi = a, b
		}
		if percentile(lo, 100) < percentile(hi, 0) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > m.Bound {
		return "worse"
	}
	return "ok"
}

func runCompare(w io.Writer, specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	exact := map[string]bool{}
	for _, m := range perLayerMetrics {
		exact[m.Name] = m.exact
	}
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs); ratio = B/A, base = A's median\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %8s %7s %s\n", "workload", "metric", "A", "B", "ratio", "bound", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		row := func(m metric, perLayer bool) {
			m.exact = exact[m.Name]
			xa, xb := values(a, wl.Name, m.Name, perLayer), values(b, wl.Name, m.Name, perLayer)
			v := verdict(m, perLayer, xa, xb)
			if v == "worse" {
				bad++
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			}
			fmt.Fprintf(w, "%-16s %-34s %14.4f %14.4f %8.3f %7s %s\n", wl.Name, m.Name,
				median(xa), median(xb), ratio(median(xb), median(xa)), bound, v)
		}
		for _, m := range spec.EndToEnd {
			row(m, false)
		}
		for _, m := range spec.PerLayer {
			row(m, true)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", bad)
	}
	return nil
}
