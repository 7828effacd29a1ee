package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/expt"
	"locind/internal/mobility"
	"locind/internal/obs"
	"locind/internal/par"
)

// sizes fixes how much work each workload does. Tests shrink it.
type sizes struct {
	quickCfg, fullCfg func() expt.Config
	// quickWorlds is how many worlds, each from its own seed derived from
	// the workload seed, one figures-quick run builds and passes over in
	// turn; averaging over them keeps one heavy world from setting the
	// figure. tracedWorlds is how many of them its traced run covers.
	quickWorlds, tracedWorlds int
	// setups and daemonSetups are how many times a device-full run and a
	// daemon run set their workload up; setup_s is the median.
	setups, daemonSetups int

	gnsNames        int // names in the cluster
	gnsOpsPerCaller int // operations per caller per iteration
	nomadDevices    int // fleet size per iteration
	nomadDays       int
	// gnsTracedIters and nomadTracedIters are how many iterations each pass
	// of a daemon's traced run makes.
	gnsTracedIters, nomadTracedIters int
	// references are the recorded output digests of these sizes' worlds.
	references map[string]string
}

func defaultSizes() sizes {
	return sizes{
		quickCfg:         expt.QuickConfig,
		fullCfg:          expt.DefaultConfig,
		quickWorlds:      10,
		tracedWorlds:     3,
		setups:           3,
		daemonSetups:     5,
		gnsNames:         1000,
		gnsOpsPerCaller:  250,
		nomadDevices:     1000,
		nomadDays:        2,
		gnsTracedIters:   20,
		nomadTracedIters: 3,
		references:       references,
	}
}

// figureOrder lists the drivers each figure workload runs, in the order
// locind prints them.
func figureOrder(quick bool) []string {
	if quick {
		return figureDrivers
	}
	return []string{"fig6", "fig7", "fig8", "sensitivity", "envelope", "fig9", "fig10"}
}

// worldSeed derives the seed of world j of a run; world 0 uses the
// workload seed itself.
func worldSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// figurePass renders one pass of the drivers over a world, byte for byte
// as locind prints it, and keeps the results the layer replay checks
// against.
type figurePass struct {
	w      *expt.World
	out    bytes.Buffer
	fig8   *expt.Fig8Result
	fig9   *expt.Fig9Result
	sens   expt.SensitivityResult
	fig11b expt.Fig11bcResult
}

func (p *figurePass) println(s string) {
	p.out.WriteString(s)
	p.out.WriteByte('\n')
}

func (p *figurePass) ensure8() expt.Fig8Result {
	if p.fig8 == nil {
		r := expt.RunFig8(p.w)
		p.fig8 = &r
	}
	return *p.fig8
}

func (p *figurePass) ensure9() expt.Fig9Result {
	if p.fig9 == nil {
		r := expt.RunFig9(p.w)
		p.fig9 = &r
	}
	return *p.fig9
}

// run executes one driver, mirroring cmd/locind.
func (p *figurePass) run(driver string) error {
	w := p.w
	switch driver {
	case "table1":
		p.println(expt.RunTable1(63, 100, 500, w.Cfg.Seed).Render()) // locind's -quick size
	case "netsim":
		res, err := expt.RunNetsim(w.Cfg.Seed)
		if err != nil {
			return err
		}
		p.println(res.Render())
		traffic, err := expt.RunContentTraffic(w.Cfg.Seed)
		if err != nil {
			return err
		}
		p.println(traffic.Render())
		comp, err := expt.RunCompact(w.Cfg.Seed)
		if err != nil {
			return err
		}
		p.println(comp.Render())
	case "fig6":
		p.println(expt.RunFig6(w).Render())
	case "fig7":
		p.println(expt.RunFig7(w).Render())
	case "fig8":
		p.println(p.ensure8().Render())
	case "sensitivity":
		res, err := expt.RunSensitivity(w)
		if err != nil {
			return err
		}
		p.sens = res
		p.println(res.Render())
	case "envelope":
		p.println(expt.RunEnvelope(w, p.ensure8(), p.ensure9()).Render())
	case "fig9":
		p.println(p.ensure9().Render())
	case "fig10":
		p.println(expt.RunFig10(w).Render())
	case "fig11a":
		p.println(expt.RunFig11a(w).Render())
	case "fig11b":
		p.fig11b = expt.RunFig11bc(w, cdn.Popular)
		p.println(p.fig11b.Render())
	case "fig11c":
		p.println(expt.RunFig11bc(w, cdn.Unpopular).Render())
	case "fig12":
		p.println(expt.RunFig12(w).Render())
	case "ablate":
		p.println(expt.RunStrategyAblation(w).Render())
		sweep, err := expt.RunSessionSweep(w, []int{2, 4, 8, 16, 24, 36})
		if err != nil {
			return err
		}
		p.println(sweep.Render())
		intra, err := expt.RunIntradomain(w.Cfg.Seed)
		if err != nil {
			return err
		}
		p.println(intra.Render())
	default:
		return fmt.Errorf("unknown driver %q", driver)
	}
	return nil
}

// runFigurePass runs every driver of order over w, each inside a span
// named expt.<driver> when tr is set, and returns the pass with its
// rendered output.
func runFigurePass(w *expt.World, order []string, tr *obs.Tracer) (*figurePass, error) {
	p := &figurePass{w: w}
	for _, d := range order {
		sp := tr.Start("expt."+d, "seed", fmt.Sprint(w.Cfg.Seed))
		err := p.run(d)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d, err)
		}
	}
	return p, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// figureWorld is one world of a figure run and what its output must hash to.
type figureWorld struct {
	w    *expt.World
	want string // reference digest, or "" until the run establishes it
}

// buildWorld is the set-up of one world: the world build plus, for the
// content figures, the timeline sweep the world generates lazily.
func buildWorld(cfg expt.Config, timelines bool) (*expt.World, error) {
	w, err := expt.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	if timelines {
		w.Timelines()
	}
	return w, nil
}

// buildWorldTraced is buildWorld step by step, one span per layer. It
// draws the same random streams as expt.BuildWorld, so the world is the
// same; the output digest check proves it.
func buildWorldTraced(cfg expt.Config, timelines bool, tr *obs.Tracer) (*expt.World, error) {
	sp := tr.Start("setup.asgraph")
	g, err := asgraph.Synthesize(cfg.AS, rand.New(rand.NewSource(cfg.Seed+1)))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("setup.bgp")
	pt, err := bgp.NewPrefixTable(g, cfg.MoreSpecifics)
	var cols []*bgp.Collector
	if err == nil {
		specs := append(append([]bgp.Spec{}, bgp.RouteViewsSpecs()...), bgp.RIPESpecs()...)
		cols, err = bgp.BuildCollectors(g, pt, specs, rand.New(rand.NewSource(cfg.Seed+2)))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("setup.mobility")
	dt, err := mobility.GenerateDeviceTrace(g, pt, cfg.Device, rand.New(rand.NewSource(cfg.Seed+3)))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("setup.cdn")
	dep, err := cdn.Generate(g, pt, cfg.CDN, rand.New(rand.NewSource(cfg.Seed+4)))
	var w *expt.World
	if err == nil {
		nRV := len(bgp.RouteViewsSpecs())
		w = &expt.World{Cfg: cfg, Graph: g, Prefixes: pt, RouteViews: cols[:nRV], RIPE: cols[nRV:], Devices: dt, Deployment: dep}
		if timelines {
			w.Timelines()
		}
	}
	sp.End()
	return w, err
}

// figureSpec describes one of the two figure workloads.
type figureSpec struct {
	name   string
	quick  bool // the -quick experiment set (content figures, table1, netsim)
	worlds int
	cfg    func() expt.Config
	refs   map[string]string
}

func runFiguresQuick(o runOpts) (*result, error) {
	return runFigures(o, figureSpec{"figures-quick", true, o.sz.quickWorlds, o.sz.quickCfg, o.sz.references})
}

func runDeviceFull(o runOpts) (*result, error) {
	return runFigures(o, figureSpec{"device-full", false, 1, o.sz.fullCfg, o.sz.references})
}

// reference returns the recorded digest of one world, or "".
func (fs figureSpec) reference(worldSeed int64) string {
	return fs.refs[fmt.Sprintf("%s/%d", fs.name, worldSeed)]
}

func (fs figureSpec) config(seed int64, j int) expt.Config {
	cfg := fs.cfg()
	cfg.Seed = worldSeed(seed, j)
	return cfg
}

// checkPass compares a pass's output with the world's reference digest.
// Without a recorded reference the first pass at the default worker count
// is checked against a sequential pass (Parallel=1), which schedules every
// driver differently and must render the same bytes.
func (fs figureSpec) checkPass(fw *figureWorld, p *figurePass, res *result) error {
	res.attempted++
	got := digest(p.out.Bytes())
	if fw.want == "" {
		seq, err := sequentialDigest(fw.w, figureOrder(fs.quick))
		if err != nil {
			return err
		}
		fw.want = seq
		res.note("world %d: no recorded reference; checked against a sequential pass (digest %s)", fw.w.Cfg.Seed, seq)
	}
	if got != fw.want {
		res.fail("world %d: output digest %s, reference %s", fw.w.Cfg.Seed, got, fw.want)
	}
	return nil
}

// sequentialDigest renders a pass at Parallel=1 and returns its digest.
func sequentialDigest(w *expt.World, order []string) (string, error) {
	saved := w.Cfg.Parallel
	w.Cfg.Parallel = 1
	defer func() { w.Cfg.Parallel = saved }()
	p, err := runFigurePass(w, order, nil)
	if err != nil {
		return "", err
	}
	return digest(p.out.Bytes()), nil
}

func runFigures(o runOpts, fs figureSpec) (*result, error) {
	if o.trace {
		return runFiguresTraced(o, fs)
	}
	res := newResult()
	order := figureOrder(fs.quick)
	// One world at a time: build it (timed as set-up), pass over it for its
	// share of the run, let it go. A single-world workload builds its world
	// o.sz.setups times first and keeps the last.
	var setups, worldS, worldMiB []float64
	var fw *figureWorld
	build := func(j int) error {
		fw = nil // let the previous world go before timing the next build
		cfg := fs.config(o.seed, j)
		runtime.GC()
		t := readCPUTicks()
		t0 := time.Now()
		w, err := buildWorld(cfg, fs.quick)
		if err != nil {
			return fmt.Errorf("world %d: %w", cfg.Seed, err)
		}
		setups = append(setups, time.Since(t0).Seconds()*t.granted())
		fw = &figureWorld{w: w, want: fs.reference(cfg.Seed)}
		return nil
	}
	for i := 1; fs.worlds == 1 && i < o.sz.setups; i++ {
		if err := build(0); err != nil {
			return nil, err
		}
	}
	share := o.seconds / time.Duration(fs.worlds)
	for j := 0; j < fs.worlds; j++ {
		if err := build(j); err != nil {
			return nil, err
		}
		var walls, allocs []float64
		runTicks := readCPUTicks()
		start := time.Now()
		for len(walls) == 0 || time.Since(start) < share {
			runtime.GC()
			a0 := totalAlloc()
			t0 := time.Now()
			p, err := runFigurePass(fw.w, order, nil)
			walls = append(walls, time.Since(t0).Seconds())
			allocs = append(allocs, mib(totalAlloc()-a0))
			if err != nil {
				return nil, err
			}
			if err := fs.checkPass(fw, p, res); err != nil {
				return nil, err
			}
		}
		granted := runTicks.granted()
		worldS = append(worldS, mean(walls)*granted)
		worldMiB = append(worldMiB, median(allocs))
		res.note("world %d: %d pass(es) of %v s; CPU share granted %.3f", fw.w.Cfg.Seed, len(walls), walls, granted)
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["run_s"] = mean(worldS)
	res.metrics["alloc_mib"] = mean(worldMiB)
	res.metrics["live_heap_mib"] = mib(liveHeap())
	runtime.KeepAlive(fw) // the live heap is measured with the last world still in use
	return res, nil
}

// runFiguresTraced is the traced run of a figure workload. Per world it
// builds the world layer by layer, then makes five passes over the
// drivers: untraced, traced (one span per driver), sequential
// (Parallel=1), untraced again, and the layer replay. The two untraced
// passes are the base of trace.overhead_frac and par.speedup.
func runFiguresTraced(o runOpts, fs figureSpec) (*result, error) {
	res := newResult()
	order := figureOrder(fs.quick)
	tr := newTracer(o.seed)
	var untraced, traced, sequential time.Duration
	rep := &replayStats{}
	worlds := min(fs.worlds, o.sz.tracedWorlds)
	for j := 0; j < worlds; j++ {
		cfg := fs.config(o.seed, j)
		runtime.GC()
		w, err := buildWorldTraced(cfg, fs.quick, tr)
		if err != nil {
			return nil, fmt.Errorf("world %d: %w", cfg.Seed, err)
		}
		fw := &figureWorld{w: w, want: fs.reference(cfg.Seed)}
		var p *figurePass
		for _, pass := range []struct {
			tr    *obs.Tracer
			par   int
			total *time.Duration
		}{{nil, w.Cfg.Parallel, &untraced}, {tr, w.Cfg.Parallel, &traced}, {nil, 1, &sequential}, {nil, w.Cfg.Parallel, &untraced}} {
			saved := w.Cfg.Parallel
			w.Cfg.Parallel = pass.par
			runtime.GC()
			ticks := readCPUTicks()
			t0 := time.Now()
			p, err = runFigurePass(w, order, pass.tr)
			*pass.total += time.Duration(float64(time.Since(t0)) * ticks.granted())
			w.Cfg.Parallel = saved
			if err != nil {
				return nil, err
			}
			if err := fs.checkPass(fw, p, res); err != nil {
				return nil, err
			}
		}
		if fs.quick {
			err = replayContent(w, p.fig11b, tr, rep, res)
		} else {
			err = replayDevice(w, p, tr, rep, res)
		}
		if err != nil {
			return nil, err
		}
	}
	k := float64(worlds)
	spans := tr.Spans()
	for _, name := range append(prefixed("expt.", order), "setup.asgraph", "setup.bgp", "setup.mobility", "setup.cdn", "mobility.imap") {
		res.metrics[name+"_s"] = sumDur(spans, name).Seconds() / k
	}
	rep.report(res, spans, k)
	base := untraced.Seconds() / 2
	res.metrics["trace.overhead_frac"] = traced.Seconds()/base - 1
	res.metrics["par.speedup"] = sequential.Seconds() / base
	res.metrics["par.efficiency"] = res.metrics["par.speedup"] / float64(par.Workers(0))
	path, err := writeChrome(o, fs.name, tr)
	if err != nil {
		return nil, err
	}
	res.note("%s seed %d traced: untraced %v (two passes), traced %v, sequential %v over %d world(s); trace %s",
		fs.name, o.seed, untraced, traced, sequential, worlds, path)
	return res, nil
}

func prefixed(prefix string, xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = prefix + x
	}
	return out
}
