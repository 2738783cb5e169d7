package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dkip/internal/serve"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// serveShape sizes the serve workload.
type serveShape struct {
	warmup, measure uint64 // base length of a fresh spec
	perClient       int    // requests each client sends per pass
	skip            int    // per-client requests per pass before timing starts
	verify          int    // misses re-simulated by a direct Runner
}

// serveScale gives each client 312 requests per pass at full scale: 156
// misses, one per preset × benchmark pair, so with two clients a pass
// simulates every pair twice, whatever the seed.
func serveScale(tiny bool) serveShape {
	if tiny {
		return serveShape{200, 500, 24, 2, 4}
	}
	return serveShape{1_000, 12_000, 312, 20, 16}
}

// serveSetupReps is how many times the serve set-up is timed before each
// pass; the median over the run is reported.
const serveSetupReps = 3

// serveHardCap ends a run whose passes still lack samples for a p99.
const serveHardCap = 120 * time.Second

// reqID names request k of client c; the server derives the same id from
// the client identity and the client's arrival count, since each client
// has one request in flight.
func reqID(c, k int) int64 { return int64(c)<<32 | int64(k) }

// probe wraps the daemon's handler: it counts responses, bytes and non-2xx
// answers, and records a span per submission.
type probe struct {
	next   http.Handler
	tr     *tracer
	non2xx atomic.Int64
	posts  atomic.Int64
	bytes  atomic.Int64

	mu       sync.Mutex
	arrivals map[string]int
	keyReq   map[string]int64 // content key -> request id
	hookAt   map[int64]int64  // request id -> OnSimulate time
}

func newProbe(next http.Handler, tr *tracer) *probe {
	return &probe{next: next, tr: tr, arrivals: map[string]int{}, keyReq: map[string]int64{}, hookAt: map[int64]int64{}}
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (p *probe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
		p.next.ServeHTTP(cw, r)
		if cw.status/100 != 2 {
			p.non2xx.Add(1)
		}
		return
	}
	var req, id int64
	traced := p.tr.enabled()
	if traced {
		c, _ := strconv.Atoi(strings.TrimPrefix(r.Header.Get("X-Dkip-Client"), "perfbench-"))
		id = p.tr.newID()
		p.mu.Lock()
		k := p.arrivals[r.Header.Get("X-Dkip-Client")]
		req = reqID(c, k)
		p.mu.Unlock()
	}
	t0 := p.tr.now()
	p.next.ServeHTTP(cw, r)
	t1 := p.tr.now()
	p.posts.Add(1)
	p.bytes.Add(cw.n)
	if cw.status/100 != 2 {
		p.non2xx.Add(1)
	}
	// Count every arrival, traced or not, so ids stay aligned with the
	// clients' request counters.
	p.mu.Lock()
	p.arrivals[r.Header.Get("X-Dkip-Client")]++
	p.mu.Unlock()
	if traced {
		p.tr.add(span{ID: id, Name: "serve.handler", Req: req, Start: t0, End: t1})
	}
}

// onSimulate is the Runner hook: it stamps the start of the simulation a
// traced request caused.
func (p *probe) onSimulate(s sim.RunSpec) {
	if !p.tr.enabled() {
		return
	}
	t := p.tr.now()
	k := s.Key()
	p.mu.Lock()
	if req, ok := p.keyReq[k]; ok {
		p.hookAt[req] = t
	}
	p.mu.Unlock()
}

// daemon is one in-process dkipd.
type daemon struct {
	dir    string
	store  *sim.Store
	runner *sim.Runner
	http   *httptest.Server
	probe  *probe
}

func (d *daemon) close() {
	d.http.Close()
	os.RemoveAll(d.dir)
}

// startDaemon opens a Store in a fresh directory, starts the server over
// it and waits for healthz.
func startDaemon(scratch string, tr *tracer) (*daemon, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if d.store, err = sim.OpenStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.probe = newProbe(nil, tr)
	d.runner = sim.NewRunner(sim.Parallel(nproc()), sim.WithStore(d.store), sim.OnSimulate(d.probe.onSimulate))
	d.probe.next = serve.NewServer(d.runner, d.store)
	d.http = httptest.NewServer(d.probe)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := serve.WaitHealthy(ctx, d.http.URL, 10*time.Second); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// outcome is one completed request.
type outcome struct {
	client, k  int
	hit        bool
	spec       sim.RunSpec
	id         int // fresh-spec id, for misses
	start, end int64
	elapsed    time.Duration
	res        *sim.Result
	stats      []byte
	measured   bool
	traced     bool
}

func (o *outcome) latency() time.Duration { return time.Duration(o.end - o.start) }

// serveGen is one client's seeded request sequence. Requests come in
// pairs, one fresh spec (a miss that simulates and writes the Store) and one
// repeat of a spec this client already had answered (a memo hit), in an
// order the seed picks. Fresh specs are drawn from the cross product of the
// machine presets and the benchmarks, dealt out in walks: walk w of client c
// takes the pairs whose place in a seeded shuffle of the product is c+w
// modulo the client count, in a seeded order. So every n walks a client
// covers the whole product once, and when the client count divides its size
// every pass carries the same work for every seed. Each fresh spec encodes
// its id in its length, so no two share a content key.
type serveGen struct {
	rng      *rand.Rand
	c, n     int
	k        int
	shape    serveShape
	pair     [2]bool // whether each request of the current pair is a hit
	product  [][2]string
	walks    int
	walk     [][2]string // what is left of the current walk
	misses   int
	answered []*outcome
}

func newServeGen(seed uint64, c, n int, shape serveShape) *serveGen {
	var product [][2]string
	for _, p := range sim.PresetNames() {
		for _, b := range workload.Names() {
			product = append(product, [2]string{p, b})
		}
	}
	deal := rand.New(rand.NewPCG(seed, 0xc4055))
	deal.Shuffle(len(product), func(i, j int) { product[i], product[j] = product[j], product[i] })
	return &serveGen{rng: rand.New(rand.NewPCG(seed, 0x5e77e+uint64(c))), c: c, n: n, shape: shape, product: product}
}

func (g *serveGen) next() (*outcome, error) {
	o := &outcome{client: g.c, k: g.k}
	g.k++
	if o.k%2 == 0 {
		hitFirst := g.rng.IntN(2) == 0 && len(g.answered) > 0
		g.pair = [2]bool{hitFirst, !hitFirst}
	}
	if g.pair[o.k%2] && len(g.answered) > 0 {
		prev := g.answered[g.rng.IntN(len(g.answered))]
		o.hit, o.spec, o.id = true, prev.spec, prev.id
		return o, nil
	}
	g.misses++
	for len(g.walk) == 0 {
		for i, pb := range g.product {
			if i%g.n == (g.c+g.walks)%g.n {
				g.walk = append(g.walk, pb)
			}
		}
		g.walks++
		g.rng.Shuffle(len(g.walk), func(i, j int) { g.walk[i], g.walk[j] = g.walk[j], g.walk[i] })
	}
	pb := g.walk[0]
	g.walk = g.walk[1:]
	o.id = o.k*g.n + g.c
	spec, err := sim.PresetSpec(pb[0], pb[1], g.shape.warmup+uint64(o.id/1000), g.shape.measure+uint64(o.id%1000))
	o.spec = spec
	return o, err
}

// servePass is one fresh daemon answering every client's fixed request
// sequence.
type servePass struct {
	done   []*outcome // by client, then request number
	wall   time.Duration
	start  int64 // tracer clock
	traced bool
}

// runPass lets nproc closed-loop clients, each a serve.Client sending one
// spec per request without retries, work through their sequences on a
// freshly started daemon.
func runPass(cfg config, shape serveShape, tr *tracer, rep *report, d *daemon) (*servePass, error) {
	n := nproc()
	ps := &servePass{traced: tr.enabled(), start: tr.now()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, n)
	begin := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := serve.NewClient(d.http.URL,
				serve.WithRetry(serve.RetryPolicy{Attempts: 1}),
				serve.Identity(fmt.Sprintf("perfbench-%d", c)))
			gen := newServeGen(cfg.seed, c, n, shape)
			for gen.k < shape.perClient {
				o, err := gen.next()
				if err != nil {
					errs[c] = err
					return
				}
				o.measured = o.k >= shape.skip
				o.traced = ps.traced
				var clientID int64
				if o.traced {
					clientID = tr.newID()
					if !o.hit {
						d.probe.mu.Lock()
						d.probe.keyReq[o.spec.Key()] = reqID(c, o.k)
						d.probe.mu.Unlock()
					}
				}
				o.start = tr.now()
				res, err := client.Run(o.spec)
				o.end = tr.now()
				if o.traced {
					tr.add(span{ID: clientID, Name: "serve.client", Req: reqID(c, o.k), Start: o.start, End: o.end})
				}
				o.res = res
				if err == nil {
					err = checkServed(o)
				}
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail("client %d request %d: %v", c, o.k, err)
				} else {
					o.elapsed = res.Elapsed
					if !o.hit {
						gen.answered = append(gen.answered, o)
					}
					ps.done = append(ps.done, o)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ps.wall = time.Since(begin)
	sort.Slice(ps.done, func(i, j int) bool {
		if ps.done[i].client != ps.done[j].client {
			return ps.done[i].client < ps.done[j].client
		}
		return ps.done[i].k < ps.done[j].k
	})
	return ps, errors.Join(errs...)
}

// runServe drives an in-process dkipd through passes of the same seeded
// request mix, each on a fresh daemon and Store. Another pass starts while
// at least half of one fits in the measuring time, and until hits and
// misses each have enough samples for a p99. A traced run alternates untraced and traced passes.
func runServe(cfg config, tr *tracer) (*report, error) {
	shape := serveScale(cfg.tiny)
	rep := newReport()
	scratch := filepath.Join(cfg.scratch, "tmp")
	var setups []float64
	need := samplesFor(0.99)
	if cfg.tiny {
		need = 1 // smoke-test scale takes too few samples for a p99 by design
	}
	var walls, tracedWalls, reqPerS, simsPerS, minstr []float64
	var missLat, hitLat []float64
	perArch := map[string][]float64{}
	var layerDaemon *daemon
	var layerPass *servePass
	defer func() {
		if layerDaemon != nil {
			layerDaemon.close()
		}
	}()
	firstDigest := ""
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for p := 0; ; p++ {
		if p >= minPasses && len(missLat) >= need && len(hitLat) >= need {
			left := cfg.seconds - time.Since(start).Seconds()
			if len(walls) == 0 || left < median(walls)/2 {
				break
			}
		}
		if time.Since(start) > serveHardCap {
			rep.fail("serve passes still lack samples after %v", serveHardCap)
			break
		}
		on := cfg.trace && p%2 == 1
		tr.on.Store(on)
		// Set-up is timed several times before every pass, so its median
		// spans the whole run; the last daemon serves the pass.
		var d *daemon
		for i := 0; i < serveSetupReps; i++ {
			if d != nil {
				d.close()
			}
			runtime.GC()
			start := time.Now()
			var err error
			if d, err = startDaemon(scratch, tr); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		ps, err := runPass(cfg, shape, tr, rep, d)
		tr.on.Store(false)
		if on {
			if layerDaemon != nil {
				layerDaemon.close()
			}
			layerDaemon, layerPass = d, ps
		} else {
			d.close()
		}
		if err != nil {
			return nil, err
		}

		// Every pass answers the same sequence, so its digest repeats.
		digest := serveDigest(ps.done)
		if firstDigest == "" {
			firstDigest = digest
		} else if digest != firstDigest {
			rep.fail("pass %d: stats digest %s differs from the first pass's %s", p, digest, firstDigest)
		}
		verify := 0
		if p == 0 {
			verify = shape.verify
		}
		verifyDirect(rep, ps.done, verify)

		var misses, instrs float64
		for _, o := range ps.done {
			if !o.hit {
				misses++
				instrs += float64(o.spec.Warmup + o.spec.Measure)
			}
			if !o.measured {
				continue
			}
			if o.hit {
				hitLat = append(hitLat, millis(o.latency()))
				continue
			}
			missLat = append(missLat, millis(o.latency()))
			if !on {
				a := o.spec.Arch.String()
				perArch[a] = append(perArch[a], float64(o.spec.Warmup+o.spec.Measure)/1e6/o.elapsed.Seconds())
			}
		}
		w := ps.wall.Seconds()
		if on {
			tracedWalls = append(tracedWalls, w)
			continue
		}
		walls = append(walls, w)
		reqPerS = append(reqPerS, float64(len(ps.done))/w)
		simsPerS = append(simsPerS, misses/w)
		minstr = append(minstr, instrs/1e6/w)
	}
	rep.digest = firstDigest
	if len(walls) == 0 {
		return rep, nil
	}
	rep.set("setup_s", median(setups))
	rep.set("wall_s", fastTime(walls))
	rep.set("req_per_s", fastRate(reqPerS))
	rep.set("sims_per_s", fastRate(simsPerS))
	rep.set("sim_minstr_per_s", fastRate(minstr))
	for _, a := range engineArchs {
		if len(perArch[a]) == 0 {
			return nil, fmt.Errorf("the serve mix ran no %s simulation", a)
		}
		rep.set(a+"_minstr_per_s", fastRate(perArch[a]))
	}
	for _, q := range []struct {
		name string
		lat  []float64
		p    float64
	}{{"miss_p50_ms", missLat, 0.5}, {"miss_p99_ms", missLat, 0.99}, {"hit_p50_ms", hitLat, 0.5}, {"hit_p99_ms", hitLat, 0.99}} {
		v, _ := percentile(q.lat, q.p)
		rep.set(q.name, v)
	}
	if !cfg.trace {
		return rep, nil
	}
	rep.set("trace.overhead_frac", median(tracedWalls)/median(walls)-1)
	if err := serveLayers(rep, tr, layerDaemon, layerPass, cfg); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// checkServed verifies one answer: the requested instruction count, a
// fresh simulation for a miss, and for a hit the memo's copy of exactly the
// bytes its miss returned.
func checkServed(o *outcome) error {
	if err := checkCommitted(o.spec.Label(), o.res.Stats, o.spec.Measure); err != nil {
		return err
	}
	o.stats = statsJSON(o.res.Stats)
	if !o.hit {
		if o.res.Cached {
			return fmt.Errorf("fresh spec %d answered from a cache", o.id)
		}
		return nil
	}
	if !o.res.Cached {
		return fmt.Errorf("repeat of spec %d simulated again", o.id)
	}
	return nil
}

// serveDigest folds every miss of a pass, in sequence order, into one
// digest.
func serveDigest(done []*outcome) string {
	h := sha256.New()
	for _, o := range done {
		if !o.hit {
			fmt.Fprintf(h, "%d:%s:%s;", o.id, o.res.Key, digestOf(o.stats))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// verifyDirect compares hits with their misses byte for byte and
// re-simulates a few misses through a direct Runner; each mismatch is a
// failed operation.
func verifyDirect(rep *report, done []*outcome, count int) {
	missByID := map[int]*outcome{}
	for _, o := range done {
		if !o.hit {
			missByID[o.id] = o
		}
	}
	for _, o := range done {
		if o.hit && !bytes.Equal(o.stats, missByID[o.id].stats) {
			rep.fail("hit of spec %d differs from its miss", o.id)
		}
	}
	var picked []*outcome
	for _, o := range done {
		if !o.hit && len(picked) < count {
			picked = append(picked, o)
		}
	}
	specs := make([]sim.RunSpec, len(picked))
	for i, o := range picked {
		specs[i] = o.spec
	}
	results, err := sim.NewRunner(sim.Parallel(nproc())).RunAll(specs)
	rep.attempted += len(picked)
	for i, o := range picked {
		switch {
		case err != nil && results[i] == nil:
			rep.fail("direct run of spec %d: %v", o.id, err)
		case !bytes.Equal(statsJSON(results[i].Stats), o.stats):
			rep.fail("spec %d: served statistics differ from a direct Runner's", o.id)
		}
	}
}

// serveLayers reports the serve and sim layer metrics of a traced pass from
// its spans, then replays the lower layers.
func serveLayers(rep *report, tr *tracer, d *daemon, ps *servePass, cfg config) error {
	handlers := map[int64]span{}
	for _, s := range tr.snapshot() {
		if s.Name == "serve.handler" && s.Start >= ps.start {
			handlers[s.Req] = s
		}
	}
	done := ps.done
	var simInstrs float64
	var overhead, hitOver, handlerMs, handlerSelf, simWait, queueWait []float64
	var missSpecs []sim.RunSpec
	var missResults []*sim.Result
	benches := map[string]bool{}
	for _, o := range done {
		if !o.hit {
			missSpecs = append(missSpecs, o.spec)
			missResults = append(missResults, o.res)
			benches[o.spec.Bench] = true
			simInstrs += float64(o.spec.Warmup + o.spec.Measure)
			if o.measured {
				overhead = append(overhead, millis(o.latency()-o.elapsed))
			}
		}
		if !o.traced {
			continue
		}
		req := reqID(o.client, o.k)
		h, ok := handlers[req]
		if !ok {
			continue
		}
		if o.hit {
			handlerMs = append(handlerMs, millis(time.Duration(h.dur())))
			hitOver = append(hitOver, float64(o.latency()-time.Duration(h.dur()))/1e3)
			handlerSelf = append(handlerSelf, millis(time.Duration(h.dur())))
			continue
		}
		d.probe.mu.Lock()
		at, ok := d.probe.hookAt[req]
		d.probe.mu.Unlock()
		if !ok {
			continue
		}
		child := span{Parent: h.ID, Name: "sim.simulate", Req: req, Start: at, End: at + int64(o.elapsed)}
		tr.put(child)
		handlerSelf = append(handlerSelf, millis(time.Duration(selfTime(h, []span{child}))))
		simWait = append(simWait, millis(time.Duration(at-h.Start)))
		queueWait = append(queueWait, millis(time.Duration(at-o.start)))
	}
	m := d.runner.Metrics()
	rep.set("serve.overhead_ms", median(overhead))
	rep.set("serve.hit_overhead_us", median(hitOver))
	rep.set("serve.handler_ms", median(handlerMs))
	rep.set("serve.handler_self_ms", median(handlerSelf))
	rep.set("serve.sim_wait_ms", median(simWait))
	rep.set("serve.response_bytes", float64(d.probe.bytes.Load())/float64(max(1, d.probe.posts.Load())))
	rep.set("serve.non2xx", float64(d.probe.non2xx.Load()))
	rep.set("sim.queue_wait_ms", median(queueWait))
	rep.set("sim.dedup_frac", ratio(m.Deduped+m.CacheHits, m.Requested))
	rep.set("sim.disk_writes", float64(m.DiskWrites))
	rep.set("workload.instrs_generated", simInstrs)
	rep.set("workload.sims_per_stream", float64(len(missSpecs))/float64(len(benches)))
	if err := replaySim(rep, missSpecs, d.runner, cfg.tiny); err != nil {
		return err
	}
	if err := replayStore(rep, d.store, missResults, filepath.Join(cfg.scratch, "tmp")); err != nil {
		return err
	}
	reps := firstPerArch(missSpecs)
	samples, err := replayEngines(reps, cfg.tiny)
	if err != nil {
		return err
	}
	return replayLayers(rep, reps, samples, cfg.tiny)
}

// replayStore times Store.Get on results the daemon persisted and
// Store.Put of the same results into a fresh store.
func replayStore(rep *report, live *sim.Store, results []*sim.Result, scratch string) error {
	results = results[:min(200, len(results))]
	var gets, puts []float64
	for _, r := range results {
		t := time.Now()
		_, ok := live.Get(r.Key)
		gets = append(gets, millis(time.Since(t)))
		if !ok {
			return fmt.Errorf("result %s missing from the daemon's store", r.Key)
		}
	}
	dir, err := os.MkdirTemp(scratch, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := sim.OpenStore(dir)
	if err != nil {
		return err
	}
	for _, r := range results {
		t := time.Now()
		if err := st.Put(r); err != nil {
			return err
		}
		puts = append(puts, millis(time.Since(t)))
	}
	rep.set("sim.store_get_ms", median(gets))
	rep.set("sim.store_put_ms", median(puts))
	return nil
}
