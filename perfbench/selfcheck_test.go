package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The output self-check: every workload runs at tiny scale, untraced and
// traced, through the same command BENCHMARK.json declares, and its result
// line must match the declaration exactly. Run from this directory with
// `go test ./...` (it builds womd into ../.bench_build).

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

type benchDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadDecl reads ../BENCHMARK.json, rejecting unknown keys.
func loadDecl(t *testing.T) benchDecl {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range top {
		got = append(got, k)
	}
	if fmt.Sprint(sortStrings(got)) != fmt.Sprint(want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	var d benchDecl
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	return d
}

func sortStrings(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestDeclarationLayout checks BENCHMARK.json against the contract's limits
// and the metric tables compiled into the benchmark.
func TestDeclarationLayout(t *testing.T) {
	d := loadDecl(t)
	if len(d.Command) == 0 || len(d.Command) > 32 {
		t.Errorf("command has %d strings", len(d.Command))
	}
	for _, c := range d.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(d.Paths) < 1 || len(d.Paths) > 16 {
		t.Errorf("%d paths", len(d.Paths))
	}
	for _, p := range d.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d", d.RunSeconds)
	}
	if budget := (4 + 22*len(d.Workloads)) * (d.RunSeconds + 10); budget > 3420-300 {
		t.Errorf("%d runs of %ds plus set-up leave no room for two builds in 3420s", 4+22*len(d.Workloads), d.RunSeconds)
	}
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 {
		t.Errorf("%d workloads", len(d.Workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, w := range d.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 || len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(d.EndToEnd), len(d.PerLayer))
	}
	setup := false
	for _, m := range d.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range d.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %g is not the largest (%s has %g)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range d.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	compare := func(kind string, decl []metricDecl, names, units []string) {
		if len(decl) != len(names) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", kind, len(decl), len(names))
			return
		}
		for i, m := range decl {
			if m.name != names[i] || m.unit != units[i] {
				t.Errorf("%s metric %d: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range d.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	compare("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range d.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	compare("per_layer", perLayer, n, u)
}

// TestOutputEveryWorkload runs every implemented workload at tiny scale,
// untraced and traced, and checks the result line and that no womd child
// survives.
func TestOutputEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadDecl(t)
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	for _, name := range sortStrings(names) {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				args := append(append([]string(nil), d.Command[1:]...),
					"--workload", name, "--seed", "3", "--seconds", "1", "--trace", traced, "--size", "tiny")
				cmd := exec.Command(d.Command[0], args...)
				cmd.Dir = ".."
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, stdout.String())
				}
				if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
					t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", keysOf(rep))
				}
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]map[string]json.RawMessage
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if traced == "0" {
					for _, m := range d.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range d.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					mv, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if !nameRE.MatchString(name) || len(mv) != 2 {
						t.Errorf("metric %s: malformed %v", name, keysOf(mv))
						continue
					}
					var gotUnit string
					var v float64
					if json.Unmarshal(mv["unit"], &gotUnit) != nil || gotUnit != unit {
						t.Errorf("metric %s unit %s, want %s", name, mv["unit"], unit)
					}
					if json.Unmarshal(mv["value"], &v) != nil || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s value %s is not a finite number", name, mv["value"])
					}
				}
				for _, pid := range childPIDs(stderr.String()) {
					if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
						t.Errorf("womd child %d survived the run", pid)
					}
				}
				if traced == "1" {
					if _, err := os.Stat(filepath.Join("..", ".bench_build", "trace-"+name+"-3.json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestFailsOutsideCheckout runs the command in a directory holding only
// BENCHMARK.json and the benchmark's files: it must fail without a result.
func TestFailsOutsideCheckout(t *testing.T) {
	d := loadDecl(t)
	dir := t.TempDir()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Paths {
		if err := os.CopyFS(filepath.Join(dir, p), os.DirFS(filepath.Join("..", p))); err != nil {
			t.Fatal(err)
		}
	}
	args := append(append([]string(nil), d.Command[1:]...), "--workload", d.Workloads[0].Name,
		"--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(d.Command[0], args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("benchmark succeeded outside a checkout")
	}
	if bytes.Contains(out, []byte(`"metrics"`)) {
		t.Fatalf("benchmark printed a result outside a checkout: %s", out)
	}
}

// childPIDs lists the womd pids a run logged at launch.
func childPIDs(stderr string) []int {
	var pids []int
	for _, line := range strings.Split(stderr, "\n") {
		if i := strings.Index(line, "womd pid "); i >= 0 {
			f := strings.Fields(line[i+len("womd pid "):])
			if len(f) > 0 {
				if pid, err := strconv.Atoi(f[0]); err == nil {
					pids = append(pids, pid)
				}
			}
		}
	}
	return pids
}

func keysOf[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return sortStrings(out)
}
