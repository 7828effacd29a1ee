package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"locind/internal/expt"
)

// tinySizes shrinks every workload so the whole suite runs in seconds.
func tinySizes() sizes {
	tiny := func() expt.Config {
		cfg := expt.QuickConfig()
		cfg.Device.Users = 20
		cfg.Device.Days = 3
		cfg.CDN.PopularDomains = 15
		cfg.CDN.UnpopularDomains = 15
		cfg.ContentDays = 2
		cfg.IMAPUsers = 60
		cfg.IMAPDays = 2
		return cfg
	}
	return sizes{
		quickCfg:         tiny,
		fullCfg:          tiny,
		quickWorlds:      2,
		tracedWorlds:     2,
		setups:           2,
		daemonSetups:     2,
		gnsNames:         40,
		gnsOpsPerCaller:  150,
		nomadDevices:     40,
		nomadDays:        1,
		gnsTracedIters:   2,
		nomadTracedIters: 2,
	}
}

func tinyOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 7, seconds: time.Millisecond, trace: trace, sz: tinySizes(), outDir: t.TempDir()}
}

// TestWorkloadsRun runs every workload untraced and traced at tiny scale:
// each must pass its checks and report its whole metric set.
func TestWorkloadsRun(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				res, err := wl.run(tinyOpts(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("checks failed: attempted %d, failed %d: %v", res.attempted, res.failed, res.errs)
				}
				line, err := res.line(trace)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Fatalf("%d metrics printed, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesBenchmarkJSON holds the workloads and metrics the code
// prints to the ones BENCHMARK.json declares, names and units alike.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(names), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), code %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q (%q): bad or repeated name or unit", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	var names, units []string
	for _, m := range bj.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end-to-end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range bj.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per-layer", names, units, perLayer)
}

// TestFigureCheckRejectsDoctoredReference feeds a figure pass a wrong
// reference digest.
func TestFigureCheckRejectsDoctoredReference(t *testing.T) {
	sz := tinySizes()
	fs := figureSpec{"device-full", false, 1, sz.fullCfg, nil}
	w, err := buildWorld(fs.config(7, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runFigurePass(w, figureOrder(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	fw := &figureWorld{w: w, want: digest(p.out.Bytes())}
	if err := fs.checkPass(fw, p, res); err != nil || !res.correct() {
		t.Fatalf("true reference rejected: %v %v", err, res.errs)
	}
	fw.want = "0123456789abcdef"
	if err := fs.checkPass(fw, p, res); err != nil || res.failed != 1 {
		t.Fatalf("doctored reference accepted: err %v, failed %d", err, res.failed)
	}
}

// TestGNSCheckRejectsWrongBinding doctors the binding one caller believes
// it committed: the next lookup of that name and the final cluster digest
// must both fail.
func TestGNSCheckRejectsWrongBinding(t *testing.T) {
	rig, err := bootGNS(7, tinySizes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	c := rig.callers[0]
	name := c.names[0]
	c.want[name] = c.addrs()
	c.lookup(context.Background(), rig.client, name)
	if c.failed != 1 {
		t.Fatalf("lookup of a doctored binding passed")
	}
	res := newResult()
	rig.check(res)
	if res.failed != 2 { // the lookup and the cluster digest
		t.Fatalf("check counted %d failures, want 2: %v", res.failed, res.errs)
	}
}

// TestNomadCheckRejectsDoctoredReference runs one upload iteration against
// a wrong reference fleet digest.
func TestNomadCheckRejectsDoctoredReference(t *testing.T) {
	rig, err := bootNomad(7, tinySizes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	if err := rig.reference(7); err != nil {
		t.Fatal(err)
	}
	res := newResult()
	if _, err := rig.iterate(res); err != nil || !res.correct() {
		t.Fatalf("true reference rejected: %v %v", err, res.errs)
	}
	rig.ref = "0123456789abcdef"
	if _, err := rig.iterate(res); err != nil || res.failed != 1 {
		t.Fatalf("doctored reference accepted: err %v, failed %d", err, res.failed)
	}
}

var (
	recordSeeds    = flag.String("record-seeds", "", "print reference digests for these workload seeds (FROM-TO or a comma list)")
	recordWorkload = flag.String("record-workload", "", "with -record-seeds, record only this figure workload")
)

// TestRecordReferences prints the references.go entries missing for the
// figure worlds of the given seeds, at full size:
//
//	go test -c -o perfbench.test && ./perfbench.test -test.run TestRecordReferences -record-seeds 0-24
func TestRecordReferences(t *testing.T) {
	if *recordSeeds == "" {
		t.Skip("no -record-seeds")
	}
	var seeds []int64
	for _, part := range strings.Split(*recordSeeds, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				t.Fatal(err)
			}
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	sz := defaultSizes()
	for _, fs := range []figureSpec{{"figures-quick", true, sz.quickWorlds, sz.quickCfg, sz.references}, {"device-full", false, 1, sz.fullCfg, sz.references}} {
		if *recordWorkload != "" && fs.name != *recordWorkload {
			continue
		}
		for _, seed := range seeds {
			for j := 0; j < fs.worlds; j++ {
				if fs.refs[fmt.Sprintf("%s/%d", fs.name, worldSeed(seed, j))] != "" {
					continue // already recorded
				}
				cfg := fs.config(seed, j)
				w, err := buildWorld(cfg, fs.quick)
				if err != nil {
					t.Fatal(err)
				}
				p, err := runFigurePass(w, figureOrder(fs.quick), nil)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Printf("\t%q: %q,\n", fmt.Sprintf("%s/%d", fs.name, cfg.Seed), digest(p.out.Bytes()))
			}
		}
	}
}
