package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/gns/cluster"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

const (
	gnsShards, gnsReplicas = 3, 3
	gnsUpdateShare         = 0.1 // the 9:1 lookup:update mix
	gnsZipfS               = 1.1 // name popularity skew
)

// gnsRig is one booted cluster, its shared client and the two closed-loop
// callers that drive it.
type gnsRig struct {
	cl      *cluster.Cluster
	client  *cluster.Client
	cancel  context.CancelFunc
	callers []*gnsCaller
}

// gnsCaller issues operations one at a time, each after the previous one
// returned. It owns every other name, so the binding it last committed for
// a name is the one every later lookup must return.
type gnsCaller struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	names []string
	want  map[string][]netaddr.Addr

	lookups, updates  []time.Duration
	attempted, failed int64
	errs              []string
	// capture, when set, records each operation as the replica request it
	// became, for the store replay.
	capture bool
	log     []gns.Request
}

func (c *gnsCaller) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *gnsCaller) addrs() []netaddr.Addr {
	out := make([]netaddr.Addr, 1+c.rng.Intn(2))
	for i := range out {
		out[i] = netaddr.Addr(c.rng.Uint32())
	}
	return out
}

func (c *gnsCaller) update(ctx context.Context, client *cluster.Client, name string, addrs []netaddr.Addr) {
	t0 := time.Now()
	vv, err := client.Update(ctx, name, addrs)
	c.updates = append(c.updates, time.Since(t0))
	c.attempted++
	if err != nil {
		c.fail("update %s: %v", name, err)
		return
	}
	c.want[name] = addrs
	if c.capture {
		req := gns.Request{Op: "vput", Name: name, VV: vv.Encode()}
		for _, a := range addrs {
			req.Addrs = append(req.Addrs, a.String())
		}
		c.log = append(c.log, req)
	}
}

func (c *gnsCaller) lookup(ctx context.Context, client *cluster.Client, name string) {
	t0 := time.Now()
	rec, err := client.Lookup(ctx, name)
	c.lookups = append(c.lookups, time.Since(t0))
	c.attempted++
	switch {
	case err != nil:
		c.fail("lookup %s: %v", name, err)
	case rec.Stale:
		c.fail("lookup %s: stale answer", name)
	case !slices.Equal(rec.Addrs, c.want[name]):
		c.fail("lookup %s: got %v, last committed %v", name, rec.Addrs, c.want[name])
	}
	if c.capture {
		c.log = append(c.log, gns.Request{Op: "vget", Name: name})
	}
}

// run issues n operations drawn from the caller's seeded mix.
func (c *gnsCaller) run(ctx context.Context, client *cluster.Client, n int) {
	for i := 0; i < n; i++ {
		name := c.names[c.zipf.Uint64()]
		if c.rng.Float64() < gnsUpdateShare {
			c.update(ctx, client, name, c.addrs())
		} else {
			c.lookup(ctx, client, name)
		}
	}
}

// bootGNS starts a fault-free cluster and binds every name once. tr, when
// set, traces the client and every replica server.
func bootGNS(seed int64, sz sizes, tr *obs.Tracer) (*gnsRig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var sm *gns.ServerMetrics
	if tr != nil {
		sm = &gns.ServerMetrics{Tracer: tr}
	}
	cl, err := cluster.Start(ctx, cluster.Config{Shards: gnsShards, Replicas: gnsReplicas}, faultnet.NewEnv(seed), sm)
	if err != nil {
		cancel()
		return nil, err
	}
	client := cluster.NewClient(cl.Addrs(), cluster.ClientConfig{Origin: 1})
	client.Tracer = tr
	r := &gnsRig{cl: cl, client: client, cancel: cancel}
	for ci := 0; ci < 2; ci++ {
		rng := rand.New(rand.NewSource(seed*2 + int64(ci)))
		c := &gnsCaller{rng: rng, want: map[string][]netaddr.Addr{}, capture: tr != nil}
		for i := ci; i < sz.gnsNames; i += 2 {
			c.names = append(c.names, fmt.Sprintf("bench-%05d.locind", i))
		}
		c.zipf = rand.NewZipf(rng, gnsZipfS, 1, uint64(len(c.names)-1))
		r.callers = append(r.callers, c)
	}
	r.parallel(func(c *gnsCaller) {
		for _, name := range c.names {
			c.update(ctx, client, name, c.addrs())
		}
	})
	for _, c := range r.callers {
		if c.failed > 0 {
			r.close()
			return nil, fmt.Errorf("binding the names: %s", c.errs[0])
		}
		c.updates, c.attempted = nil, 0
	}
	return r, nil
}

func (r *gnsRig) close() {
	r.cl.Close()
	r.cancel()
}

// parallel runs fn once per caller, concurrently, and waits.
func (r *gnsRig) parallel(fn func(c *gnsCaller)) {
	var wg sync.WaitGroup
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *gnsCaller) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// iterate has each caller issue ops operations and returns the wall time.
func (r *gnsRig) iterate(ops int) time.Duration {
	t0 := time.Now()
	r.parallel(func(c *gnsCaller) { c.run(context.Background(), r.client, ops) })
	return time.Since(t0)
}

// check tallies the callers into res and verifies that every replica
// serves exactly the bindings the callers committed last.
func (r *gnsRig) check(res *result) {
	want := map[string][]netaddr.Addr{}
	for _, c := range r.callers {
		res.merge(c.attempted, c.failed, c.errs)
		for k, v := range c.want {
			want[k] = v
		}
	}
	res.attempted++
	got, _ := r.cl.BindingDigest()
	exp, _ := cluster.ExpectedBindingDigest(gnsShards, gnsReplicas, want)
	if got != exp {
		res.fail("cluster binding digest %016x, expected %016x", got, exp)
	}
}

func (r *gnsRig) latencies() (lookups, updates []time.Duration) {
	for _, c := range r.callers {
		lookups = append(lookups, c.lookups...)
		updates = append(updates, c.updates...)
	}
	return lookups, updates
}

// dropSamples releases the latency samples, so the live heap counts the
// cluster and not the benchmark's own records.
func (r *gnsRig) dropSamples() {
	for _, c := range r.callers {
		c.lookups, c.updates = nil, nil
	}
}

func (r *gnsRig) ops() int64 {
	var n int64
	for _, c := range r.callers {
		n += int64(len(c.lookups) + len(c.updates))
	}
	return n
}

func runGNSResolve(o runOpts) (*result, error) {
	// Callers and replicas share one process. One P keeps every hand-off
	// between them on one CPU: on a virtual machine, waking a second,
	// idle CPU can cost milliseconds when the host is busy, which made the
	// latency tail and the throughput follow the neighbours' load.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if o.trace {
		return runGNSTraced(o)
	}
	res := newResult()
	var rig *gnsRig
	var setups []float64
	ticks := readCPUTicks()
	for i := 0; i < o.sz.daemonSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = bootGNS(o.seed, o.sz, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.close()
	res.metrics["setup_s"] = median(setups) * ticks.granted()

	var walls, allocs []float64
	ticks = readCPUTicks()
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < o.seconds {
		a0 := totalAlloc()
		walls = append(walls, rig.iterate(o.sz.gnsOpsPerCaller).Seconds())
		allocs = append(allocs, mib(totalAlloc()-a0))
	}
	granted := ticks.granted()
	rig.check(res)
	res.metrics["run_s"] = mean(walls) * granted
	res.metrics["alloc_mib"] = median(allocs)
	lookups, updates := rig.latencies()
	res.note("gns-resolve seed %d: %d iterations of %d ops, %.0f ops/s; CPU share granted %.3f; lookup p50 %.0fus p99 %.0fus (n=%d); update p50 %.0fus p99 %.0fus (n=%d)",
		o.seed, len(walls), 2*o.sz.gnsOpsPerCaller, float64(2*o.sz.gnsOpsPerCaller)/mean(walls), granted,
		percentileUS(lookups, 0.5), percentileUS(lookups, 0.99), len(lookups),
		percentileUS(updates, 0.5), percentileUS(updates, 0.99), len(updates))
	rig.dropSamples()
	res.metrics["live_heap_mib"] = mib(liveHeap())
	runtime.KeepAlive(rig)
	return res, nil
}

// runGNSTraced makes the same fixed number of iterations twice, on two
// clusters: untraced for the client latencies and throughput, then with
// the client and every replica traced for the leg, serve and fan-out
// breakdown. The operations of the traced pass are then replayed straight
// into a fresh replica store.
func runGNSTraced(o runOpts) (*result, error) {
	res := newResult()
	plain, err := bootGNS(o.seed, o.sz, nil)
	if err != nil {
		return nil, err
	}
	attempts0 := plain.client.Attempts()
	var untraced time.Duration
	ticks := readCPUTicks()
	for i := 0; i < o.sz.gnsTracedIters; i++ {
		untraced += plain.iterate(o.sz.gnsOpsPerCaller)
	}
	untraced = time.Duration(float64(untraced) * ticks.granted())
	plain.check(res)
	plain.close()
	lookups, updates := plain.latencies()
	ops := plain.ops()
	res.metrics["gns.resolve_ops_s"] = float64(ops) / untraced.Seconds()
	res.metrics["cluster.lookup_p50_us"] = percentileUS(lookups, 0.5)
	res.metrics["cluster.lookup_p99_us"] = percentileUS(lookups, 0.99)
	res.metrics["cluster.lookup_samples"] = float64(len(lookups))
	res.metrics["cluster.update_p50_us"] = percentileUS(updates, 0.5)
	res.metrics["cluster.update_p99_us"] = percentileUS(updates, 0.99)
	res.metrics["cluster.update_samples"] = float64(len(updates))
	res.metrics["gns.attempts_per_op"] = float64(plain.client.Attempts()-attempts0) / float64(ops)

	tr := newTracer(o.seed)
	traced, err := bootGNS(o.seed, o.sz, tr)
	if err != nil {
		return nil, err
	}
	seeding := len(tr.Spans())
	var wall time.Duration
	ticks = readCPUTicks()
	for i := 0; i < o.sz.gnsTracedIters; i++ {
		wall += traced.iterate(o.sz.gnsOpsPerCaller)
	}
	granted := ticks.granted()
	traced.check(res)
	traced.close()
	all := tr.Spans()
	spans := all[seeding:]
	res.metrics["trace.overhead_frac"] = wall.Seconds()*granted/untraced.Seconds() - 1
	reportGNSSpans(res, spans, wall)
	res.metrics["cluster.store_ns"] = replayStore(traced.callers)
	path, err := writeChrome(o, "gns-resolve", tr)
	if err != nil {
		return nil, err
	}
	res.note("gns-resolve seed %d traced: %d ops untraced in %v, traced in %v; %d spans; trace %s",
		o.seed, ops, untraced, wall, len(spans), path)
	return res, nil
}

// reportGNSSpans derives the cluster's per-layer metrics from the spans of
// the traced pass: client operations (gnsc-lookup, gnsc-update), their
// replica legs, and the server-side serve spans parented onto the legs.
func reportGNSSpans(res *result, spans []obs.SpanRecord, wall time.Duration) {
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var legs, serves []time.Duration
	nOps := map[string]int{}
	opDur := map[string]time.Duration{}
	legCount := map[string]int{}
	legDur := map[string]time.Duration{}
	busy := map[string]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "gnsc-lookup", "gnsc-update":
			nOps[s.Name]++
			opDur[s.Name] += s.Dur
		case "replica":
			legs = append(legs, s.Dur)
			op := byID[s.Parent].Name
			legCount[op]++
			legDur[op] += s.Dur
		case "gns-serve":
			serves = append(serves, s.Dur)
			leg := byID[s.Parent]
			busy[fmt.Sprint(leg.Labels)] += s.Dur
		}
	}
	leg50, serve50 := percentileUS(legs, 0.5), percentileUS(serves, 0.5)
	res.metrics["gns.leg_p50_us"] = leg50
	res.metrics["gns.serve_p50_us"] = serve50
	res.metrics["gns.wire_p50_us"] = leg50 - serve50
	var busyMax time.Duration
	for _, d := range busy {
		busyMax = max(busyMax, d)
	}
	res.metrics["gns.server_busy_max"] = busyMax.Seconds() / wall.Seconds()
	if n := nOps["gnsc-update"]; n > 0 {
		res.metrics["cluster.legs_per_update"] = float64(legCount["gnsc-update"]) / float64(n)
		res.metrics["cluster.update_leg_share"] = legDur["gnsc-update"].Seconds() / opDur["gnsc-update"].Seconds()
	}
	if n := nOps["gnsc-lookup"]; n > 0 {
		res.metrics["cluster.legs_per_lookup"] = float64(legCount["gnsc-lookup"]) / float64(n)
	}
}

// replayStore replays the callers' recorded operations into a fresh
// replica store through cluster.Store.HandleOp and returns the mean time
// per operation in ns. The names' initial bindings are applied first,
// untimed.
func replayStore(callers []*gnsCaller) float64 {
	st := cluster.NewStore(1 << 32)
	var timed []gns.Request
	for _, c := range callers {
		n := len(c.names) // the first n entries bound the names
		for _, req := range c.log[:n] {
			st.HandleOp(req)
		}
		timed = append(timed, c.log[n:]...)
	}
	t0 := time.Now()
	for _, req := range timed {
		st.HandleOp(req)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(timed))
}
