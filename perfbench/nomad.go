package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/mobility"
	"locind/internal/nomad"
	"locind/internal/nomad/engine"
	"locind/internal/obs"
	"locind/internal/reliable"
)

const nomadShards = 2

// nomadRig is the upload pipeline: a streaming fleet, one engine per shard
// uploading over loopback HTTP with a fresh connection per batch, and the
// server behind a handler that each iteration points at a fresh
// nomad.NewStreamingServer.
type nomadRig struct {
	fleet   *mobility.FleetGen
	devices int
	days    int
	ln      net.Listener
	hs      *http.Server
	served  sync.WaitGroup
	handler *swapHandler
	engines []*engine.Engine
	ups     []*timedUploader
	mets    []*engine.Metrics
	ref     string // fleet digest of the in-process reference replay
}

// swapHandler serves through the current iteration's nomad server; with a
// tracer it wraps each request in a span parented onto the uploader's.
type swapHandler struct {
	cur atomic.Pointer[nomad.Server]
	tr  *obs.Tracer
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr != nil {
		tc, _ := obs.ParseTraceContext(r.Header.Get("X-Nomad-Trace"))
		sp := h.tr.StartRemote(tc, "nomad.Server.ServeHTTP")
		defer sp.End()
	}
	h.cur.Load().ServeHTTP(w, r)
}

// timedUploader wraps one shard's nomad.Client: it times and counts every
// upload and, when traced, opens a span per upload whose context rides the
// request to the server.
type timedUploader struct {
	client *nomad.Client
	tr     *obs.Tracer
	parent *obs.Span // the shard's engine span, when traced
	lat    []time.Duration

	calls, failed int64
	errs          []string
	// capture, when set, keeps a copy of every uploaded batch for the
	// ingest replay.
	capture bool
	batches []capturedBatch
}

type capturedBatch struct {
	id      string
	entries []nomad.Entry
}

func (u *timedUploader) Upload(ctx context.Context, batchID string, batch []nomad.Entry) error {
	sp := u.parent.Child("nomad.Client.Upload")
	t0 := time.Now()
	err := u.client.Upload(obs.ContextWith(ctx, sp), batchID, batch)
	u.lat = append(u.lat, time.Since(t0))
	sp.End()
	u.calls++
	if err != nil {
		u.failed++
		if len(u.errs) < 10 {
			u.errs = append(u.errs, fmt.Sprintf("upload %s: %v", batchID, err))
		}
	}
	if u.capture {
		u.batches = append(u.batches, capturedBatch{batchID, append([]nomad.Entry(nil), batch...)})
	}
	return err
}

// aggUploader stores batches straight into an Aggregates: the in-process
// reference the served digest must equal.
type aggUploader struct{ agg *nomad.Aggregates }

func (u aggUploader) Upload(_ context.Context, batchID string, batch []nomad.Entry) error {
	u.agg.IngestBatch(batchID, batch)
	return nil
}

// newFleet builds the streaming fleet the soak uses: a quick-scale
// internetwork and address plan, devices generated day by day.
func newFleet(seed int64, days int) (*mobility.FleetGen, error) {
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 80
	acfg.Stubs = 700
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		return nil, err
	}
	dcfg := mobility.DefaultDeviceConfig()
	dcfg.Days = days
	return mobility.NewFleetGen(g, pt, dcfg, seed+1)
}

func engineConfig(fleet *mobility.FleetGen, base, devices, days int, up engine.Uploader, seed int64, m *engine.Metrics) engine.Config {
	return engine.Config{
		Fleet:            fleet,
		UserBase:         base,
		Devices:          devices,
		Days:             days,
		Uploader:         up,
		UploadRetries:    3,
		Backoff:          reliable.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.5},
		Rand:             rand.New(rand.NewSource(seed)),
		MaxPending:       512,
		MaxQueuedBatches: 64,
		FlushAtEnd:       true,
		Metrics:          m,
	}
}

// bootNomad sets up the fleet, the server and the shard engines.
func bootNomad(seed int64, sz sizes, tr *obs.Tracer) (*nomadRig, error) {
	fleet, err := newFleet(seed, sz.nomadDays)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &nomadRig{fleet: fleet, devices: sz.nomadDevices, days: sz.nomadDays, ln: ln, handler: &swapHandler{tr: tr}}
	r.hs = &http.Server{Handler: r.handler, ReadHeaderTimeout: 10 * time.Second}
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		r.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed once close shuts it down
	}()
	reg := obs.NewRegistry()
	per := (sz.nomadDevices + nomadShards - 1) / nomadShards
	for i := 0; i < nomadShards; i++ {
		base, n := i*per, min(per, sz.nomadDevices-i*per)
		up := &timedUploader{
			client: &nomad.Client{
				BaseURL: "http://" + ln.Addr().String(),
				HTTP:    &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
			},
			tr:      tr,
			capture: tr != nil,
		}
		m := engine.NewShardMetrics(reg, i)
		e, err := engine.New(engineConfig(fleet, base, n, sz.nomadDays, up, seed+3+int64(i), m))
		if err != nil {
			r.close()
			return nil, err
		}
		r.engines, r.ups, r.mets = append(r.engines, e), append(r.ups, up), append(r.mets, m)
	}
	return r, nil
}

func (r *nomadRig) close() {
	r.hs.Close() //nolint:errcheck // teardown; nothing is in flight
	r.served.Wait()
}

// reference replays the same fleet in-process, one engine storing straight
// into a fresh Aggregates, and records its fleet digest.
func (r *nomadRig) reference(seed int64) error {
	agg := nomad.NewAggregates()
	e, err := engine.New(engineConfig(r.fleet, 0, r.devices, r.days, aggUploader{agg}, seed, nil))
	if err != nil {
		return err
	}
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	if _, err := e.FlushAll(context.Background()); err != nil {
		return err
	}
	r.ref = agg.Snapshot().Digest
	return nil
}

// nomadIter is what one iteration did.
type nomadIter struct {
	wall     time.Duration
	events   int64
	attempts int64
	snap     nomad.AggSnapshot
}

// iterate streams the whole fleet once into a fresh streaming server and
// checks what the server stored.
func (r *nomadRig) iterate(res *result) (nomadIter, error) {
	srv := nomad.NewStreamingServer()
	r.handler.cur.Store(srv)
	var dropped0 int64
	for i, e := range r.engines {
		e.Reset()
		dropped0 += r.mets[i].DroppedBatches.Value()
	}
	ctx := context.Background()
	errs := make([]error, len(r.engines))
	remaining := make([]int, len(r.engines))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range r.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := r.ups[i].tr.Start("engine.Engine.Run", "shard", fmt.Sprint(i))
			r.ups[i].parent = sp
			errs[i] = r.engines[i].Run(ctx)
			if errs[i] == nil {
				remaining[i], errs[i] = r.engines[i].FlushAll(ctx)
			}
			sp.End()
		}(i)
	}
	wg.Wait()
	it := nomadIter{wall: time.Since(t0), snap: srv.Agg.Snapshot()}
	var dropped int64
	for i, e := range r.engines {
		if errs[i] != nil {
			return it, errs[i]
		}
		it.events += e.Steps()
		it.attempts += e.UploadAttempts()
		dropped += r.mets[i].DroppedBatches.Value()
		if remaining[i] != 0 || e.QueuedBatches() != 0 {
			res.fail("shard %d: %d batches still queued after the flush", i, e.QueuedBatches())
		}
	}
	res.attempted++
	switch {
	case it.snap.Digest != r.ref:
		res.fail("served fleet digest %s, in-process reference %s", it.snap.Digest, r.ref)
	case dropped != dropped0:
		res.fail("%d batches dropped", dropped-dropped0)
	case it.snap.DupBatches != 0:
		res.fail("%d duplicate batches stored", it.snap.DupBatches)
	}
	return it, nil
}

// tally moves the uploaders' counts into res.
func (r *nomadRig) tally(res *result) {
	for _, u := range r.ups {
		res.merge(u.calls, u.failed, u.errs)
	}
}

func (r *nomadRig) latencies() []time.Duration {
	var ds []time.Duration
	for _, u := range r.ups {
		ds = append(ds, u.lat...)
	}
	return ds
}

func runNomadUpload(o runOpts) (*result, error) {
	if o.trace {
		return runNomadTraced(o)
	}
	res := newResult()
	var rig *nomadRig
	var setups []float64
	ticks := readCPUTicks()
	for i := 0; i < o.sz.daemonSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = bootNomad(o.seed, o.sz, nil); err != nil {
			return nil, err
		}
		if err := rig.reference(o.seed); err != nil {
			rig.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.close()
	res.metrics["setup_s"] = median(setups) * ticks.granted()

	var walls, allocs []float64
	var events int64
	ticks = readCPUTicks()
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < o.seconds {
		a0 := totalAlloc()
		it, err := rig.iterate(res)
		if err != nil {
			return nil, err
		}
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, mib(totalAlloc()-a0))
		events = it.events
	}
	granted := ticks.granted()
	rig.tally(res)
	res.metrics["run_s"] = mean(walls) * granted
	res.metrics["alloc_mib"] = median(allocs)
	lat := rig.latencies()
	res.note("nomad-upload seed %d: %d iterations of %d devices x %d days (%d events), %.0f events/s; CPU share granted %.3f; upload p50 %.0fus p99 %.0fus (n=%d)",
		o.seed, len(walls), o.sz.nomadDevices, o.sz.nomadDays, events, float64(events)/mean(walls), granted,
		percentileUS(lat, 0.5), percentileUS(lat, 0.99), len(lat))
	for _, u := range rig.ups {
		u.lat = nil // the live heap counts the pipeline, not the benchmark's samples
	}
	res.metrics["live_heap_mib"] = mib(liveHeap())
	runtime.KeepAlive(rig)
	return res, nil
}

// runNomadTraced makes the same fixed number of iterations untraced and
// then traced, on two rigs, and replays the traced pass's batches into
// fresh Aggregates.
func runNomadTraced(o runOpts) (*result, error) {
	res := newResult()
	plain, err := bootNomad(o.seed, o.sz, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	if err := plain.reference(o.seed); err != nil {
		return nil, err
	}
	var untraced time.Duration
	var events int64
	ticks := readCPUTicks()
	for i := 0; i < o.sz.nomadTracedIters; i++ {
		it, err := plain.iterate(res)
		if err != nil {
			return nil, err
		}
		untraced += it.wall
		events += it.events
	}
	untraced = time.Duration(float64(untraced) * ticks.granted())
	plain.tally(res)
	lat := plain.latencies()
	iters := float64(o.sz.nomadTracedIters)
	res.metrics["nomad.ingest_events_s"] = float64(events) / untraced.Seconds()
	res.metrics["nomad.upload_p50_us"] = percentileUS(lat, 0.5)
	res.metrics["nomad.upload_p99_us"] = percentileUS(lat, 0.99)
	res.metrics["nomad.upload_samples"] = float64(len(lat))
	res.metrics["engine.events"] = float64(events) / iters

	tr := newTracer(o.seed)
	traced, err := bootNomad(o.seed, o.sz, tr)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	traced.ref = plain.ref
	var wall time.Duration
	var records, batches uint64
	var attempts int64
	ticks = readCPUTicks()
	for i := 0; i < o.sz.nomadTracedIters; i++ {
		it, err := traced.iterate(res)
		if err != nil {
			return nil, err
		}
		wall += it.wall
		records += it.snap.Records
		batches += it.snap.Batches
		attempts += it.attempts
	}
	granted := ticks.granted()
	traced.tally(res)
	spans := tr.Spans()
	handler := sumDur(spans, "nomad.Server.ServeHTTP")
	handler50 := percentileUS(durations(spans, "nomad.Server.ServeHTTP"), 0.5)
	ingest := replayIngest(traced.ups, o.sz.nomadTracedIters)
	res.metrics["trace.overhead_frac"] = wall.Seconds()*granted/untraced.Seconds() - 1
	res.metrics["engine.self_s"] = selfTime(spans, "engine.Engine.Run").Seconds() / iters
	res.metrics["nomad.handler_p50_us"] = handler50
	res.metrics["nomad.conn_p50_us"] = percentileUS(durations(spans, "nomad.Client.Upload"), 0.5) - handler50
	res.metrics["nomad.ingest_ns_per_record"] = float64(ingest.Nanoseconds()) / float64(records)
	res.metrics["nomad.handler_self_ns_per_record"] = float64((handler - ingest).Nanoseconds()) / float64(records)
	res.metrics["nomad.records_per_batch"] = float64(records) / float64(batches)
	res.metrics["nomad.attempts_per_batch"] = float64(attempts) / float64(batches)
	res.metrics["nomad.server_busy_frac"] = handler.Seconds() / wall.Seconds()
	path, err := writeChrome(o, "nomad-upload", tr)
	if err != nil {
		return nil, err
	}
	res.note("nomad-upload seed %d traced: %d iterations untraced in %v, traced in %v; %d spans; trace %s",
		o.seed, o.sz.nomadTracedIters, untraced, wall, len(spans), path)
	return res, nil
}

// replayIngest feeds the batches the traced pass uploaded, iteration by
// iteration, into a fresh Aggregates each and returns the time IngestBatch
// took.
func replayIngest(ups []*timedUploader, iters int) time.Duration {
	var total time.Duration
	for it := 0; it < iters; it++ {
		agg := nomad.NewAggregates()
		for _, u := range ups {
			per := len(u.batches) / iters
			t0 := time.Now()
			for _, b := range u.batches[it*per : (it+1)*per] {
				agg.IngestBatch(b.id, b.entries)
			}
			total += time.Since(t0)
		}
	}
	return total
}
