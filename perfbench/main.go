// Command perfbench is the repository's benchmark. It replays a
// fixed-seed adversarial campaign through a live, in-process voiceprintd
// (service.Server over loopback TCP) and reports what a user of the
// daemon sees: set-up time, sustained beacons per second, verdict
// latency, CPU and heap. With --trace 1 it instead reports a per-layer
// breakdown, from a separate single-goroutine replay whose calls into
// each layer are timed as spans. Every run checks the daemon's verdicts.
// README.md describes the workloads, the metrics and the checks.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"voiceprint/internal/obs"
	"voiceprint/internal/scorecard"
	"voiceprint/internal/service"
)

//go:embed expected.json
var expectedJSON []byte

// expectation is what the daemon must produce for one workload at the
// scorecard seed: the committed scorecard row's DR and FPR, and the
// per-round verdict digests.
type expectation struct {
	Scorecard    string   `json:"scorecard"`
	Kind         string   `json:"kind"`
	DR           float64  `json:"dr"`
	FPR          float64  `json:"fpr"`
	RoundDigests []string `json:"round_digests"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-ingest, dense-compare or fused-durable")
	seed := fs.Int64("seed", scorecard.CampaignSeed, "campaign seed")
	seconds := fs.Int("seconds", 10, "nominal measuring time; sets how many replays a run makes")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	out := fs.String("out", ".bench_build", "directory for WAL scratch and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload fleet-ingest|dense-compare|fused-durable, --seconds >= 1, --trace 0|1")
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out, log: stdout}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	out     string
	log     io.Writer

	failures []string
	failed   int
	// latSamples and latTail are the verdict samples per latency group
	// and the tail percentile they allow.
	latSamples, latTail int
}

func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// campaignSeed is the i-th campaign seed of a run at seed.
func campaignSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// campaign is one realized campaign and its single-goroutine reference.
type campaign struct {
	seed    int64
	in      *input
	ref     *directResult
	digests []string
}

// prepare builds every campaign of the run and its reference replay, two
// at a time (they are set-up, not measured).
func (b *bench) prepare(walRoot string) ([]*campaign, error) {
	cs := make([]*campaign, b.w.campaigns)
	errs := make([]error, b.w.campaigns)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			c := &campaign{seed: campaignSeed(b.seed, i)}
			var err error
			if c.in, err = buildInput(b.w, c.seed); err != nil {
				errs[i] = fmt.Errorf("campaign %d: %w", c.seed, err)
				return
			}
			cfg, err := daemonConfig(b.w, c.in.maxRangeM)
			if err == nil {
				c.ref, err = directReplay(b.w, c.in, cfg, walRoot, nil)
			}
			if err != nil {
				errs[i] = fmt.Errorf("campaign %d reference replay: %w", c.seed, err)
				return
			}
			c.digests = roundDigests(c.ref.verdicts, len(c.in.segments))
			cs[i] = c
		}(i)
	}
	wg.Wait()
	return cs, errors.Join(errs...)
}

func (b *bench) run() (*result, error) {
	walRoot := filepath.Join(b.out, "wal")
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cs, err := b.prepare(walRoot)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "# %d campaigns built and replayed for reference in %.2fs\n", len(cs), time.Since(t0).Seconds())
	cfg, err := daemonConfig(b.w, cs[0].in.maxRangeM)
	if err != nil {
		return nil, err
	}
	b.printConfig(cfg, cs)
	for _, c := range cs {
		fmt.Fprintf(b.log, "# campaign %d: %d lines, round digests %s\n", c.seed, c.in.count, strings.Join(c.digests, ","))
		b.checkScorecard(fmt.Sprintf("campaign %d reference", c.seed), c.seed, c.ref.grade, c.digests)
	}

	// The traced replay of the first campaign gives the per-layer times;
	// an untraced replay run just before it, under the same conditions,
	// gives the tracing overhead. Both must reproduce the reference.
	var tr *tracer
	var traced, untraced *directResult
	if b.trace {
		c := cs[0]
		if untraced, err = directReplay(b.w, c.in, cfg, walRoot, nil); err != nil {
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
		tr = newTracer()
		if traced, err = directReplay(b.w, c.in, cfg, walRoot, tr); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		b.compare("untraced replay", untraced.verdicts, c.ref.verdicts, len(c.in.segments))
		b.compare("traced replay", traced.verdicts, c.ref.verdicts, len(c.in.segments))
	}

	perCampaign := max(1, int(math.Round(float64(b.seconds)/(b.w.replaySeconds*float64(len(cs))))))
	var lives []*liveResult
	attempted := 0
	for i := 0; i < perCampaign*len(cs); i++ {
		c := cs[i%len(cs)]
		cfg, err := daemonConfig(b.w, c.in.maxRangeM)
		if err != nil {
			return nil, err
		}
		lr, err := liveReplay(b.w, c.in, cfg, walRoot)
		if err != nil {
			return nil, fmt.Errorf("live replay %d (campaign %d): %w", i, c.seed, err)
		}
		lr.campaign = i % len(cs)
		attempted += lr.sent + lr.expected
		what := fmt.Sprintf("live replay %d (campaign %d)", i, c.seed)
		if lr.failed > 0 {
			b.fail(lr.failed, "%s: %s", what, strings.Join(lr.failures, "; "))
		}
		fmt.Fprintf(b.log, "# %s: %.3fs timed, set-up %.6fs, heap %.2f MB, %d lines, %d verdicts, DetectNow ms %.1f\n",
			what, lr.meter.wall.Seconds(), lr.setup.Seconds(), float64(lr.heapPeak)/(1<<20), lr.sent, len(lr.verdicts), ms(lr.detects))
		b.compare(what, lr.verdicts, c.ref.verdicts, len(c.in.segments))
		b.checkScorecard(what, c.seed, lr.grade, roundDigests(lr.verdicts, len(c.in.segments)))
		lives = append(lives, lr)
	}

	ms := b.endToEnd(lives)
	b.printMetrics(ms)
	if b.trace {
		if ms, err = b.layerMetrics(cs[0].in, lives, traced, untraced, tr, attempted); err != nil {
			return nil, err
		}
		b.printMetrics(ms)
	}
	for _, f := range b.failures {
		fmt.Fprintln(b.log, "# FAIL", f)
	}
	return &result{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed, Metrics: ms}, nil
}

// compare requires got to hold exactly the reference verdicts, counting
// every verdict of a mismatching round as failed.
func (b *bench) compare(what string, got, want []verdict, rounds int) {
	gd, wd := roundDigests(got, rounds), roundDigests(want, rounds)
	for r := range wd {
		if gd[r] != wd[r] {
			n := 0
			for _, v := range want {
				if v.Round == r {
					n++
				}
			}
			b.fail(max(n, 1), "%s: round %d verdicts differ from the single-goroutine reference", what, r)
		}
	}
}

// checkScorecard holds a replay of the scorecard-seed campaign to the
// committed scorecard row and the recorded per-round verdict digests.
// Replays of other campaigns are held to their reference by compare.
func (b *bench) checkScorecard(what string, seed int64, g grade, digests []string) {
	if seed != scorecard.CampaignSeed {
		return
	}
	if g.err != nil {
		b.fail(1, "%s: grading: %v", what, g.err)
		return
	}
	var exp map[string]expectation
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		b.fail(1, "expected.json: %v", err)
		return
	}
	e, ok := exp[b.w.name]
	if !ok {
		b.fail(1, "expected.json has no %s entry", b.w.name)
		return
	}
	if g.dr != e.DR || g.fpr != e.FPR {
		b.fail(1, "%s: DR/FPR %.4f/%.4f, %s %s row has %.4f/%.4f", what, g.dr, g.fpr, e.Scorecard, e.Kind, e.DR, e.FPR)
	}
	if strings.Join(digests, ",") != strings.Join(e.RoundDigests, ",") {
		b.fail(1, "%s: round digests %v, recorded %v", what, digests, e.RoundDigests)
	}
}

func (b *bench) printConfig(cfg service.Config, cs []*campaign) {
	seeds := make([]int64, len(cs))
	for i, c := range cs {
		seeds[i] = c.seed
	}
	info := map[string]any{
		"workload":       b.w.name,
		"seed":           b.seed,
		"campaign_seeds": seeds,
		"boundaries":     len(cs[0].in.segments),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"daemon":         configSummary(cfg),
	}
	if b.w.durable {
		info["crash"] = "after half of each campaign's lines"
	}
	line, _ := json.Marshal(info)
	fmt.Fprintf(b.log, "# config %s\n", line)
}

func (b *bench) printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.log, "# %-24s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// endToEnd computes the user-visible metrics over the live replays:
// medians across replays, and latency percentiles per group of
// campaigns.
func (b *bench) endToEnd(lives []*liveResult) map[string]metric {
	var setup, rate, cpu, heap []float64
	var byCampaign [][]float64
	for _, lr := range lives {
		setup = append(setup, lr.setup.Seconds())
		rate = append(rate, float64(lr.sent)/lr.meter.wall.Seconds())
		cpu = append(cpu, lr.meter.cpu.Seconds())
		heap = append(heap, float64(lr.heapPeak)/(1<<20))
		for len(byCampaign) <= lr.campaign {
			byCampaign = append(byCampaign, nil)
		}
		byCampaign[lr.campaign] = append(byCampaign[lr.campaign], ms(lr.latencies)...)
	}
	// Latency percentiles are taken per group of campaigns, over the
	// group's pooled samples, and the median across groups is reported, so
	// one heavy campaign sets neither figure. A group is the fewest
	// campaigns that together hold 2·minBeyond samples, which the tail
	// percentile needs.
	size := (2*minBeyond + len(byCampaign[0]) - 1) / max(len(byCampaign[0]), 1)
	var p50, tail []float64
	for g := 0; g < len(byCampaign); g += size {
		var lat []float64
		for _, c := range byCampaign[g:min(g+size, len(byCampaign))] {
			lat = append(lat, c...)
		}
		p := tailPercentile(len(lat))
		b.latSamples, b.latTail = len(lat), p
		fmt.Fprintf(b.log, "# verdict latency, campaigns %d-%d: %d samples, tail is p%d\n", g, min(g+size, len(byCampaign))-1, len(lat), p)
		p50 = append(p50, percentile(lat, 50))
		tail = append(tail, percentile(lat, p))
	}
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"beacons_per_s":   {median(rate), "1/s"},
		"verdict_ms_p50":  {median(p50), "ms"},
		"verdict_ms_tail": {median(tail), "ms"},
		"cpu_s":           {median(cpu), "s"},
		"heap_peak_mb":    {median(heap), "MB"},
	}
}

// layerMetrics computes the per-layer breakdown: times from the traced
// single-goroutine replay, counts from the live daemons' own counters.
func (b *bench) layerMetrics(in *input, lives []*liveResult, traced, untraced *directResult, tr *tracer, attempted int) (map[string]metric, error) {
	tot := selfTimes(tr.spans)
	if err := writeSpans(filepath.Join(b.out, "spans-"+b.w.name+".bin"), tr.spans); err != nil {
		return nil, err
	}
	var explained int64
	fmt.Fprintf(b.log, "# traced wall %.3fs, untraced %.3fs, %d spans\n", traced.wall.Seconds(), untraced.wall.Seconds(), len(tr.spans))
	for l := layer(0); l < numLayers; l++ {
		explained += tot.Self[l]
		fmt.Fprintf(b.log, "#   %-18s %9d calls %9.4fs self %6.2f%%\n", layerNames[l], tot.Calls[l],
			float64(tot.Self[l])/1e9, 100*float64(tot.Self[l])/float64(traced.wall))
	}
	rest := traced.wall.Nanoseconds() - explained
	fmt.Fprintf(b.log, "#   %-18s %25.4fs      %6.2f%%\n", "(unexplained)", float64(rest)/1e9, 100*float64(rest)/float64(traced.wall))

	perCall := func(l layer, unit time.Duration) float64 {
		if tot.Calls[l] == 0 {
			return 0
		}
		return float64(tot.Self[l]) / float64(tot.Calls[l]) / float64(unit)
	}
	secs := func(l layer) float64 { return float64(tot.Self[l]) / 1e9 }

	first := lives[0]
	c := first.counters
	pairs := c["pairs_compared_total"] + c["pairs_pruned_lb_total"] + c["pairs_reused_dirty_total"]
	ratio := func(n uint64) float64 {
		if pairs == 0 {
			return 0
		}
		return float64(n) / float64(pairs)
	}
	var drains, rounds, alloc, gcs, pauses, recov []float64
	var fsync obs.HistogramSnapshot
	for _, lr := range lives {
		drains = append(drains, ms(lr.drains)...)
		rounds = append(rounds, ms(lr.rounds)...)
		alloc = append(alloc, float64(lr.meter.alloc)/(1<<20))
		gcs = append(gcs, float64(lr.meter.gcs))
		pauses = append(pauses, float64(lr.meter.gcPause)/1e6)
		recov = append(recov, lr.recover.Seconds())
		fsync.Merge(lr.fsync)
	}
	nsPerPair := 0.0
	if traced.pairs > 0 {
		nsPerPair = float64(tot.Self[layerCompare]) / float64(traced.pairs)
	}
	return map[string]metric{
		"protocol.decode_ns":     {perCall(layerDecode, time.Nanosecond), "ns"},
		"protocol.bytes_in":      {float64(len(in.lines)), "bytes"},
		"registry.observe_ns":    {perCall(layerObserve, time.Nanosecond), "ns"},
		"server.drain_ms_p50":    {percentile(drains, 50), "ms"},
		"scheduler.round_ms_p50": {percentile(rounds, 50), "ms"},
		"scheduler.round_ms_max": {slices.Max(rounds), "ms"},
		"core.window_s":          {secs(layerWindow), "s"},
		"core.collect_s":         {secs(layerCollect), "s"},
		"core.normalize_s":       {secs(layerNormalize), "s"},
		"core.compare_s":         {secs(layerCompare), "s"},
		"core.confirm_s":         {secs(layerConfirm), "s"},
		"core.rounds_cached":     {float64(c["rounds_skipped_unchanged_total"]), "count"},
		"dtw.pairs":              {float64(pairs), "count"},
		"dtw.pairs_compared":     {float64(c["pairs_compared_total"]), "count"},
		"dtw.pairs_pruned_lb":    {float64(c["pairs_pruned_lb_total"]), "count"},
		"dtw.pairs_reused":       {float64(c["pairs_reused_dirty_total"]), "count"},
		"dtw.prune_ratio":        {ratio(c["pairs_pruned_lb_total"]), "ratio"},
		"dtw.reuse_ratio":        {ratio(c["pairs_reused_dirty_total"]), "ratio"},
		"dtw.ns_per_pair":        {nsPerPair, "ns"},
		"fusion.analyze_s":       {secs(layerAnalyze), "s"},
		"fusion.coordinate_s":    {secs(layerCoordinate), "s"},
		"events.encode_us":       {perCall(layerEncode, time.Microsecond), "us"},
		"events.bytes_out":       {float64(traced.bytesOut), "bytes"},
		"wal.appends":            {float64(c["wal_appends_total"]), "count"},
		"wal.bytes":              {float64(first.walBytes), "bytes"},
		"wal.fsyncs":             {float64(c["wal_fsyncs_total"]), "count"},
		"wal.fsync_ms_p50":       {fsync.Quantile(0.5) / 1e6, "ms"},
		"wal.recover_s":          {median(recov), "s"},
		"wal.replayed":           {float64(c["wal_replayed_records_total"]), "count"},
		"go.alloc_mb":            {median(alloc), "MB"},
		"go.gc_cycles":           {median(gcs), "count"},
		"go.gc_pause_ms":         {median(pauses), "ms"},
		"trace.explained_frac":   {float64(explained) / float64(traced.wall), "ratio"},
		"trace.overhead_frac":    {traced.wall.Seconds()/untraced.wall.Seconds() - 1, "ratio"},
		"verdict.samples":        {float64(b.latSamples), "count"},
		"verdict.tail_pct":       {float64(b.latTail), "%"},
		"failed_frac":            {float64(b.failed) / float64(max(attempted, 1)), "ratio"},
	}, nil
}
