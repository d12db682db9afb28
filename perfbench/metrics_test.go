package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := readDeclared(t)
	for _, c := range []struct {
		code []metricDecl
		json map[string]string
	}{{endToEnd, e2e}, {perLayer, layer}} {
		if len(c.code) != len(c.json) {
			t.Errorf("%d metrics in code, %d in BENCHMARK.json", len(c.code), len(c.json))
		}
		for _, d := range c.code {
			if unit, ok := c.json[d.Name]; !ok || unit != d.Unit {
				t.Errorf("metric %s [%s] is declared in BENCHMARK.json as %q (present %v)", d.Name, d.Unit, unit, ok)
			}
		}
	}
}

// TestPrintedMetricsAreDeclared runs the command on a small workload, with
// and without tracing, and checks every metric it prints against
// BENCHMARK.json.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e2e, layer := readDeclared(t)
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append(append([]workload(nil), saved...), tinyBSP()...)
	for _, c := range []struct {
		trace string
		decl  map[string]string
	}{{"0", e2e}, {"1", layer}} {
		var out bytes.Buffer
		args := []string{"--workload", "tiny-inproc", "--seed", "3", "--seconds", "1", "--trace", c.trace, "--trace-dir", t.TempDir()}
		if err := run(args, &out); err != nil {
			t.Fatalf("trace %s: %v\n%s", c.trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d\n%s", c.trace, res.Correct, res.Failed, res.Attempted, out.String())
		}
		if len(res.Metrics) != len(c.decl) {
			t.Errorf("trace %s printed %d metrics, %d declared", c.trace, len(res.Metrics), len(c.decl))
		}
		for name, v := range res.Metrics {
			if unit, ok := c.decl[name]; !ok || unit != v.Unit {
				t.Errorf("trace %s printed %s [%s], declared %q", c.trace, name, v.Unit, unit)
			}
		}
	}
}
