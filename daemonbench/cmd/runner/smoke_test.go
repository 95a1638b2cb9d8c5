package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a small size through the whole
// benchmark, untraced and traced, and requires every correctness check to
// pass and every metric BENCHMARK.json names to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs it")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "bin")
	for pkg, name := range map[string]string{"qfe/cmd/cardestd": "cardestd", "qfe/daemonbench/cmd/inproc": "inproc"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	if err := os.Mkdir(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	for _, wl := range []string{"interactive-miss", "bulk-mixed", "hot-feedback"} {
		for _, trace := range []bool{false, true} {
			var log strings.Builder
			o := options{workload: wl, seed: 7, seconds: 1, trace: trace, root: root, bin: bin,
				rows: 4000, train: 600, setups: 2}
			res, err := run(o, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := names(spec.EndToEnd)
			if trace {
				want = names(spec.PerLayer)
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", wl, trace, got, want)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "trace", "hot-feedback-seed7.cpu.pprof")); err != nil {
		t.Errorf("no CPU profile beside the spans: %v", err)
	}
}
