package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/rta"
	"letdma/internal/serve"
	"letdma/internal/sysgen"
	"letdma/internal/waters"
)

// serviceRate is the offered load of service-mix, in ops per second.
const serviceRate = 10

// The op mix of service-mix is a cycle of serviceCycleLen ops, repeated
// for the whole run: one full-WATERS MILP job (alternating OBJ-DMAT and
// OBJ-DEL) at slot watersSlot, a FastSearch job in every fifth slot, and
// in the remaining slots 25 cache reads and 10 new comb jobs on sysgen
// systems, each spread evenly, and new OBJ-DMAT comb jobs on full WATERS
// in the rest. Every slot's kind is fixed, so each run sends the same
// kinds in the same pattern, and chance coincidences of heavy jobs, and
// of light jobs queued behind them, do not move p90 between seeds; the
// seed draws the sysgen systems, the WATERS alphas, the cached specs and
// the order of the FastSearch jobs.
//
// The median op is a WATERS comb job (8–13 ms, nearly all of it CPU).
// With sysgen comb jobs in its place (about 1 ms: three fsyncs and four
// thread hand-offs), p50 swung between runs far beyond its bound whenever
// the host was contended: each hand-off either runs at once or waits a
// scheduler time slice, so the 1 ms jobs split into two modes, 1 and 4 ms.
const (
	serviceCycleLen = 100
	serviceCache    = 25
	serviceSysgen   = 10
	watersSlot      = 5
	fastEvery       = 5
)

const (
	kindComb       = "new-comb-sysgen"
	kindWatersComb = "new-comb-waters"
	kindCache      = "cache-hit"
	kindFast       = "fastsearch"
	kindWatersMILP = "waters-milp"
)

// The WATERS comb jobs draw their distinct alphas from the grid
// 0.2 + k·watersCombStep, k < watersCombGrid; all of them are feasible on
// WATERS.
const (
	watersCombGrid = 2000
	watersCombStep = 1e-4
)

// serviceLatencyLimit is the latency limit on latency_p90_ms at
// serviceRate: the rate holds without a growing backlog when p90 stays
// below it.
const serviceLatencyLimit = 250 * time.Millisecond

// serviceDrain bounds how long a run waits, after the last op was sent,
// for the outstanding jobs to finish.
const serviceDrain = 30 * time.Second

// servicePoll is the status poller's sweep interval.
const servicePoll = 200 * time.Microsecond

// priorOps is the size of the earlier session whose journal every restart
// replays; priorFast of them are FastSearch jobs.
const (
	priorOps  = 200
	priorFast = 25
)

// watersAlphas make the full-WATERS MILP jobs of the three cycles distinct specs
// (the alpha enters the job key); each is feasible and gives 14 transfers.
var watersAlphas = []float64{0.2, 0.3, 0.4}

// serviceOp is one submission of the open loop.
type serviceOp struct {
	kind string
	spec serve.JobSpec
	// transfers is the oracle's transfer count: a direct combopt solve for
	// comb jobs, EXPERIMENTS.md's 14 for the WATERS MILP jobs, 0 if unchecked.
	transfers int
}

// serviceRecord is what the loop records per op.
type serviceRecord struct {
	opRecord
	submit, lag, solve time.Duration
	attempts           int
	certified, cached  bool
	done               time.Duration // completion offset from the run start
}

// serviceMix drives an in-process letdmad server (serve.New / Start /
// Submit / Status / Shutdown) open loop at serviceRate, with a real fsync'd
// journal under .bench_build.
type serviceMix struct {
	dir        string // scratch directory of this process
	prior      string // journal of the earlier session
	priorSpecs []serviceOp
	priorComb  map[string]bool // keys of the earlier session's comb jobs
	watersComb []serviceOp     // WATERS comb jobs with their oracle, from prepare
	ops        []serviceOp
	srv        *serve.Server
	journal    string
	setupTr    *tracer
	sessions   int
}

// prepare runs the earlier session once: the same kinds of comb and
// FastSearch jobs, drawn from another seed, solved to completion and
// journaled. Every set-up then restarts a daemon on a copy of that journal.
// It also draws the run's WATERS comb jobs and solves each directly for
// its oracle; they need no instance generation (WATERS is built in), so
// only the oracle is work, and it stays off the clock.
func (s *serviceMix) prepare(seed int64) error {
	wc, err := watersCombSpecs(rand.New(rand.NewSource(seed^0xa1fa)), len(watersAlphas)*watersCombPerCycle())
	if err != nil {
		return err
	}
	s.watersComb = wc
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "service-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.prior = filepath.Join(dir, "prior.jsonl")
	s.priorComb = map[string]bool{}
	comb, err := drawCombSpecs(rand.New(rand.NewSource(seed^0x5eed)), priorOps-priorFast, s.priorComb)
	if err != nil {
		return err
	}
	fast, err := fastCatalog()
	if err != nil {
		return err
	}
	s.priorSpecs = append(comb, fast[liveFast():]...)
	srv, err := serve.New(serve.Config{JournalPath: s.prior})
	if err != nil {
		return err
	}
	srv.Start()
	var keys []string
	for _, op := range s.priorSpecs {
		st, err := srv.Submit(op.spec)
		for errors.Is(err, serve.ErrQueueFull) {
			time.Sleep(5 * time.Millisecond)
			st, err = srv.Submit(op.spec)
		}
		if err != nil {
			_ = srv.Shutdown() // the submit error is the one to report
			return fmt.Errorf("earlier session: %w", err)
		}
		keys = append(keys, st.Key)
	}
	for _, k := range keys {
		for {
			st, ok := srv.Status(k)
			if ok && st.State.Terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return srv.Shutdown()
}

// drawCombSpecs draws n comb jobs on sysgen systems, with the transfer
// count of a direct combopt solve as their oracle. Each job's key (the
// objective and the system) is new to seen, which records it.
func drawCombSpecs(rng *rand.Rand, n int, seen map[string]bool) ([]serviceOp, error) {
	cm := dma.DefaultCostModel()
	fams := sysgen.Families()
	objs := []string{"none", "dmat", "del"}
	var out []serviceOp
	for draws := 0; len(out) < n; draws++ {
		if draws > 50*n {
			return nil, fmt.Errorf("only %d of %d comb jobs after %d draws", len(out), n, draws)
		}
		sc, err := sysgen.Generate(rng.Int63n(1<<40), fams[rng.Intn(len(fams))])
		if err != nil || sc.ExpectNoComm {
			continue
		}
		a, err := let.Analyze(sc.Sys)
		if err != nil || len(a.Comms) > 5 {
			continue
		}
		objName := objs[len(out)%len(objs)]
		obj := map[string]dma.Objective{"none": dma.NoObjective, "dmat": dma.MinTransfers, "del": dma.MinDelayRatio}[objName]
		gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a)), milpAlpha)
		if err != nil {
			continue
		}
		res, err := combopt.SolveWithOptions(a, cm, gamma, obj, combopt.Options{})
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := sc.Sys.ToJSON(&buf); err != nil {
			return nil, err
		}
		key := objName + buf.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, serviceOp{kind: kindComb, transfers: res.NumTransfers,
			spec: serve.JobSpec{System: buf.Bytes(), Solver: "comb", Objective: objName}})
	}
	return out, nil
}

// fastCatalogSeed draws the FastSearch jobs of every run; the run's seed
// sets only their order. p90 falls inside their cost band, and with the
// jobs drawn per seed it moved with the draw: the per-run median of the
// FastSearch latencies ranged over 62–73 ms in five seeds.
const fastCatalogSeed = 1

// liveFast is the number of FastSearch jobs a run sends.
func liveFast() int { return len(watersAlphas) * (serviceCycleLen / fastEvery) }

// fastCatalog is the fixed list of distinct FastSearch jobs: the first
// liveFast() are the run's, the last priorFast the earlier session's, so
// no run's FastSearch job is a cache read.
func fastCatalog() ([]serviceOp, error) {
	return fastSpecs(rand.New(rand.NewSource(fastCatalogSeed)), liveFast()+priorFast)
}

// fastSpecs draws n distinct FastSearch MILP jobs: OBJ-DMAT on
// 4-communication deep-ties systems, the adversarial family for the
// nondeterministic engine. One family, size and objective keep the jobs'
// cost in one band (tens of milliseconds of search plus certificate), so
// the p90 latency, which falls inside that band, does not jump between the
// widely spaced costs of a mixed catalog (1 ms to 5 s).
func fastSpecs(rng *rand.Rand, n int) ([]serviceOp, error) {
	out := make([]serviceOp, 0, n)
	seen := map[string]bool{}
	for round := 0; len(out) < n; round++ {
		if round == 20 {
			return nil, fmt.Errorf("only %d of %d distinct FastSearch jobs after %d rounds", len(out), n, round)
		}
		insts, err := drawInstances(rng, map[sysgen.Family]map[int]int{sysgen.DeepTies: {4: n - len(out)}})
		if err != nil {
			return nil, err
		}
		for _, inst := range insts {
			var buf bytes.Buffer
			if err := inst.sys.ToJSON(&buf); err != nil {
				return nil, err
			}
			if seen[buf.String()] {
				continue
			}
			seen[buf.String()] = true
			out = append(out, serviceOp{kind: kindFast,
				spec: serve.JobSpec{System: buf.Bytes(), Solver: "milp", Fast: true, Objective: "dmat"}})
		}
	}
	return out, nil
}

// watersCombPerCycle is the number of WATERS comb jobs in one cycle.
func watersCombPerCycle() int {
	return serviceCycleLen - 1 - serviceCycleLen/fastEvery - serviceCache - serviceSysgen
}

// watersCombSpecs draws n OBJ-DMAT comb jobs on full WATERS with distinct
// alphas from the grid, each with the transfer count of a direct combopt
// solve at its alpha as the oracle.
func watersCombSpecs(rng *rand.Rand, n int) ([]serviceOp, error) {
	sys := waters.System()
	a, err := let.Analyze(sys)
	if err != nil {
		return nil, err
	}
	cm := dma.DefaultCostModel()
	intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	out := make([]serviceOp, 0, n)
	for _, k := range rng.Perm(watersCombGrid)[:n] {
		alpha := milpAlpha + float64(k)*watersCombStep
		gamma, err := rta.Gammas(a, intf, alpha)
		if err != nil {
			return nil, fmt.Errorf("WATERS at alpha %g: %w", alpha, err)
		}
		res, err := combopt.SolveWithOptions(a, cm, gamma, dma.MinTransfers, combopt.Options{})
		if err != nil {
			return nil, fmt.Errorf("WATERS at alpha %g: %w", alpha, err)
		}
		out = append(out, serviceOp{kind: kindWatersComb, transfers: res.NumTransfers,
			spec: serve.JobSpec{Waters: true, Solver: "comb", Objective: "dmat", Alpha: &alpha}})
	}
	return out, nil
}

func (s *serviceMix) setup(seed int64, tr *tracer) error {
	if err := s.stop(); err != nil {
		return err
	}
	s.setupTr = tr
	rng := rand.New(rand.NewSource(seed))
	// Enough distinct ops of each kind for a run of up to 30 s.
	cycles := len(watersAlphas)
	nFast := serviceCycleLen / fastEvery
	nLight := serviceCycleLen - 1 - nFast
	fast, err := fastCatalog()
	if err != nil {
		return err
	}
	fast = fast[:liveFast()]
	rng.Shuffle(len(fast), func(i, j int) { fast[i], fast[j] = fast[j], fast[i] })
	comb, err := drawCombSpecs(rng, cycles*serviceSysgen, maps.Clone(s.priorComb))
	if err != nil {
		return err
	}
	wc := s.watersComb
	s.ops = s.ops[:0]
	for c := 0; c < cycles; c++ {
		light, other := 0, 0 // light slots so far; those not cache reads
		for slot := 0; slot < serviceCycleLen; slot++ {
			switch {
			case slot == watersSlot:
				alpha := watersAlphas[c]
				s.ops = append(s.ops, serviceOp{kind: kindWatersMILP, transfers: 14, spec: serve.JobSpec{
					Waters: true, Solver: "milp", Slots: watersSlots, Objective: []string{"dmat", "del"}[c%2], Alpha: &alpha}})
			case slot%fastEvery == fastEvery/2:
				s.ops = append(s.ops, fast[0])
				fast = fast[1:]
			case spreads(light, serviceCache, nLight):
				op := s.priorSpecs[rng.Intn(len(s.priorSpecs))]
				op.kind = kindCache
				s.ops = append(s.ops, op)
				light++
			case spreads(other, serviceSysgen, nLight-serviceCache):
				s.ops = append(s.ops, comb[0])
				comb = comb[1:]
				light, other = light+1, other+1
			default:
				s.ops = append(s.ops, wc[0])
				wc = wc[1:]
				light, other = light+1, other+1
			}
		}
	}
	return s.restart(tr)
}

// spreads reports whether slot i of n takes one of k ops spread evenly
// over the n slots.
func spreads(i, k, n int) bool { return (i+1)*k/n > i*k/n }

// restart starts a daemon on a fresh copy of the earlier session's journal:
// serve.New replays it, then Start launches the workers.
func (s *serviceMix) restart(tr *tracer) error {
	s.sessions++
	s.journal = filepath.Join(s.dir, fmt.Sprintf("session-%d.jsonl", s.sessions))
	if err := copyFile(s.prior, s.journal); err != nil {
		return err
	}
	var err error
	tr.call("serve.New", noSpan, -1, func() { s.srv, err = serve.New(serve.Config{JournalPath: s.journal}) })
	if err != nil {
		return err
	}
	tr.call("serve.Start", noSpan, -1, s.srv.Start)
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		_ = dst.Close() // the copy error is the one to report
		return err
	}
	return dst.Close()
}

// stop shuts the running daemon down, if any.
func (s *serviceMix) stop() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown()
	s.srv = nil
	return err
}

// outstanding is an admitted job the poller waits on.
type outstanding struct {
	i    int
	key  string
	root spanID
}

func (s *serviceMix) measure(budget time.Duration, maxOps int, tr *tracer) (*runStats, error) {
	if s.srv == nil {
		s.setupTr = tr
		if err := s.restart(tr); err != nil {
			return nil, err
		}
	}
	n := maxOps
	if n == 0 {
		// Whole cycles of the mix, so every run sends the same op kinds.
		n = max(int(budget.Seconds()*serviceRate), minOps)
		n = (n + serviceCycleLen - 1) / serviceCycleLen * serviceCycleLen
	}
	if n > len(s.ops) {
		return nil, fmt.Errorf("%d ops needed, %d generated", n, len(s.ops))
	}
	before, err := os.Stat(s.journal)
	if err != nil {
		return nil, err
	}
	recs := make([]serviceRecord, n)
	interval := time.Second / serviceRate
	pending := make(chan outstanding, n) // sized to the number of sends
	start := time.Now()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // status poller
		defer wg.Done()
		s.poll(pending, recs, start, tr)
	}()
	for i := 0; i < n; i++ { // generator
		due := time.Duration(i) * interval
		sleepUntil(start, due)
		r := &recs[i]
		op := s.ops[i]
		r.kind = op.kind
		r.lag = time.Since(start) - due
		t0 := time.Now()
		root := tr.begin("op:"+op.kind, noSpan, i)
		id := tr.begin("serve.Submit", root, i)
		st, err := s.srv.Submit(op.spec)
		tr.end(id)
		r.submit = time.Since(t0)
		if err != nil || st.State.Terminal() {
			tr.end(root)
			r.done = time.Since(start)
			r.latency = r.done - due
			if r.failed = err; err == nil {
				r.cached = true
				r.verdict(op, st)
			}
			continue
		}
		pending <- outstanding{i: i, key: st.Key, root: root}
	}
	close(pending)
	wg.Wait()
	cpu := cpuTime() - cpu0
	if err := s.stop(); err != nil {
		return nil, err
	}
	after, err := os.Stat(s.journal)
	if err != nil {
		return nil, err
	}

	rs := &runStats{cpu: cpu, recs: make([]opRecord, n)}
	for i, r := range recs {
		rs.recs[i] = r.opRecord
		rs.wall = max(rs.wall, r.done)
	}
	printHealth(recs, rs.recs)
	if tr == nil {
		return rs, nil
	}
	rs.layers = s.layers(recs, tr, after.Size()-before.Size())
	return rs, nil
}

// sleepUntil returns at offset due after start. It sleeps to within a
// millisecond of it and spins the rest: timer wake-ups on a shared host run
// late by a varying fraction of a millisecond, which would otherwise land in
// every latency, measured as it is from the due time.
func sleepUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start) < due {
	}
}

// poll sweeps the outstanding jobs (see pollInterval) until each is seen in
// a terminal state, or until serviceDrain after the generator finished.
func (s *serviceMix) poll(pending <-chan outstanding, recs []serviceRecord, start time.Time, tr *tracer) {
	var open []outstanding
	var drainBy time.Time
	for pending != nil || len(open) > 0 {
		// Sweep when a job arrives or the poll interval passes; with
		// nothing outstanding, only an arrival can start a sweep.
		var tick <-chan time.Time
		if len(open) > 0 {
			tick = time.After(pollInterval(open, start))
		}
		select {
		case o, ok := <-pending:
			if !ok {
				pending = nil
				drainBy = time.Now().Add(serviceDrain)
				continue
			}
			open = append(open, o)
		case <-tick:
		}
		if pending == nil && time.Now().After(drainBy) {
			for _, o := range open {
				recs[o.i].failed = errors.New("not terminal at the end of the drain")
				recs[o.i].done = time.Since(start)
			}
			return
		}
		kept := open[:0]
		for _, o := range open {
			id := tr.begin("serve.Status", o.root, o.i)
			st, ok := s.srv.Status(o.key)
			tr.end(id)
			if !ok || !st.State.Terminal() {
				kept = append(kept, o)
				continue
			}
			tr.end(o.root)
			r := &recs[o.i]
			r.done = time.Since(start)
			r.latency = r.done - time.Duration(o.i)*(time.Second/serviceRate)
			r.verdict(s.ops[o.i], st)
		}
		open = kept
	}
}

// pollInterval is servicePoll while any outstanding job is young, and a
// hundredth of the youngest job's age once all are old (at most 10 ms):
// the poller then observes long jobs to within 1% without spinning through
// a multi-second WATERS solve.
func pollInterval(open []outstanding, start time.Time) time.Duration {
	youngest := time.Duration(1<<63 - 1)
	now := time.Since(start)
	for _, o := range open {
		youngest = min(youngest, now-time.Duration(o.i)*(time.Second/serviceRate))
	}
	return min(max(youngest/100, servicePoll), 10*time.Millisecond)
}

// verdict checks a terminal job against the oracle of its op.
func (r *serviceRecord) verdict(op serviceOp, st serve.JobStatus) {
	res := st.Result
	if res == nil {
		r.wrong = fmt.Errorf("%s job %.8s: terminal without a result", op.kind, st.Key)
		return
	}
	r.solve, r.attempts, r.certified = res.SolveTime, res.Attempts, res.Certified
	if st.State != serve.StateDone || res.Error != "" {
		r.failed = fmt.Errorf("%s job %.8s: %s after %d attempts: %s", op.kind, st.Key, st.State, res.Attempts, res.Error)
		return
	}
	if op.transfers > 0 && res.NumTransfers != op.transfers {
		r.wrong = fmt.Errorf("%s job %.8s: %d transfers, oracle says %d", op.kind, st.Key, res.NumTransfers, op.transfers)
		return
	}
	if op.spec.Fast && !res.Certified {
		r.wrong = fmt.Errorf("%s job %.8s: done but not certified", op.kind, st.Key)
	}
}

// printHealth reports the offered rate, the latency limit, how late the
// generator ran and the latency of each op kind.
func printHealth(recs []serviceRecord, ops []opRecord) {
	var lags []time.Duration
	for _, r := range recs {
		lags = append(lags, r.lag)
	}
	lags = sorted(lags)
	p90 := quantile(latencies(ops), 0.9)
	verdict := "met"
	if p90 > serviceLatencyLimit {
		verdict = "MISSED"
	}
	fmt.Fprintf(os.Stderr, "service-mix: offered %d ops/s, latency limit on p90 %v (p90 %.1f ms: %s), generator lag p50 %.3f ms p90 %.3f ms max %.3f ms\n",
		serviceRate, serviceLatencyLimit, ms(p90), verdict, ms(quantile(lags, 0.5)), ms(quantile(lags, 0.9)), ms(quantile(lags, 1)))
	byKind := map[string][]opRecord{}
	for _, r := range ops {
		byKind[r.kind] = append(byKind[r.kind], r)
	}
	for _, k := range []string{kindCache, kindComb, kindWatersComb, kindFast, kindWatersMILP} {
		lat := latencies(byKind[k])
		fmt.Fprintf(os.Stderr, "  %s: p50 %.3f ms, p90 %.3f ms (n=%d)\n", k, ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)), len(lat))
	}
}

// layers derives the service metrics of a traced pass.
func (s *serviceMix) layers(recs []serviceRecord, tr *tracer, journalBytes int64) map[string]float64 {
	// Drift compares like with like: the WATERS comb jobs of the first and
	// the last cycle all normalize the same system, and both cycles hold an
	// OBJ-DMAT WATERS MILP job. Each admission scans every job admitted
	// before it.
	var submits, firstCycle, lastCycle, lags []time.Duration
	var solve, wait time.Duration
	var cached, retries, rejected, fast, certified, admitted int
	last := (len(recs) - 1) / serviceCycleLen
	for i, r := range recs {
		submits = append(submits, r.submit)
		lags = append(lags, r.lag)
		if r.kind == kindWatersComb && i/serviceCycleLen == 0 {
			firstCycle = append(firstCycle, r.submit)
		}
		if r.kind == kindWatersComb && i/serviceCycleLen == last {
			lastCycle = append(lastCycle, r.submit)
		}
		if errors.Is(r.failed, serve.ErrQueueFull) {
			rejected++
			continue
		}
		if r.cached {
			cached++
			continue
		}
		admitted++
		solve += r.solve
		wait += r.latency - r.solve
		retries += max(r.attempts-1, 0)
		if r.kind == kindFast {
			fast++
			if r.certified {
				certified++
			}
		}
	}
	submits, lags = sorted(submits), sorted(lags)
	setup := s.setupTr.byName()
	return map[string]float64{
		"serve.submit_p50_ms":         ms(quantile(submits, 0.5)),
		"serve.submit_p90_ms":         ms(quantile(submits, 0.9)),
		"serve.submit_drift":          float64(median(lastCycle)) / float64(median(firstCycle)),
		"serve.solve_s":               solve.Seconds(),
		"serve.wait_s":                wait.Seconds(),
		"serve.cache_hit_frac":        float64(cached) / float64(len(recs)),
		"serve.retries":               float64(retries),
		"serve.rejected":              float64(rejected),
		"serve.certified_frac":        float64(certified) / float64(max(fast, 1)),
		"serve.journal_bytes_per_job": float64(journalBytes) / float64(max(admitted, 1)),
		"serve.replay_s":              spanSum(setup, "serve.New"),
		"bench.gen_lag_p90_ms":        ms(quantile(lags, 0.9)),
	}
}

func (s *serviceMix) shares(recs []opRecord) []string { return kindShares("job", recs) }

func (s *serviceMix) close() error {
	err := s.stop()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}
