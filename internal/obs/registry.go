package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// instrumentKind discriminates what an instrument renders as.
type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// instrument is one registered metric: render metadata plus a reference
// to the live value.
type instrument struct {
	name, help string
	kind       instrumentKind
	// labelKey/labelVal is the optional constant label (histograms with a
	// shared family name, e.g. per-stage latency keyed by stage).
	labelKey, labelVal string

	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() int64
	hist        *Histogram
}

// Registry is an ordered set of instruments with a namespace prefix.
// Registration order is render order (stable golden output); duplicate
// names panic at registration — a duplicate is a programmer error and
// must fail loudly at startup, not corrupt a scrape. Instruments sharing
// a family name are allowed only for histograms distinguished by a
// constant label, and must be registered consecutively so the family's
// HELP/TYPE header is emitted exactly once.
//
// Registration is not synchronized: build the registry up front, then
// render from any goroutine (rendering only reads).
type Registry struct {
	namespace   string
	instruments []instrument
	families    map[string]bool // family name → labeled?
	series      map[string]bool // family name + constant label
}

// NewRegistry builds an empty registry; namespace (e.g. "voiceprintd")
// prefixes every rendered Prometheus metric name.
func NewRegistry(namespace string) *Registry {
	return &Registry{
		namespace: namespace,
		families:  make(map[string]bool),
		series:    make(map[string]bool),
	}
}

func (r *Registry) add(in instrument) {
	labeled := in.labelKey != ""
	key := in.name
	if labeled {
		key = in.name + "{" + in.labelKey + "=" + in.labelVal + "}"
	}
	if was, ok := r.families[in.name]; ok && was != labeled {
		panic(fmt.Sprintf("obs: metric %q registered both with and without labels", in.name))
	}
	if r.series[key] {
		panic(fmt.Sprintf("obs: duplicate metric %q", key))
	}
	r.families[in.name] = labeled
	r.series[key] = true
	r.instruments = append(r.instruments, in)
}

// Counter registers a counter under name.
func (r *Registry) Counter(name, help string, c *Counter) {
	r.add(instrument{name: name, help: help, kind: kindCounter, counter: c})
}

// CounterFunc registers a callback-backed monotonic counter (state that
// already lives elsewhere and is summed at scrape time).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(instrument{name: name, help: help, kind: kindCounterFunc, counterFunc: fn})
}

// Gauge registers a gauge under name.
func (r *Registry) Gauge(name, help string, g *Gauge) {
	r.add(instrument{name: name, help: help, kind: kindGauge, gauge: g})
}

// GaugeFunc registers a callback-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.add(instrument{name: name, help: help, kind: kindGaugeFunc, gaugeFunc: fn})
}

// Histogram registers a histogram under name. labels, when given, must
// be exactly one constant key/value pair distinguishing this histogram
// within a family of the same name (all members registered
// consecutively).
func (r *Registry) Histogram(name, help string, h *Histogram, labels ...string) {
	in := instrument{name: name, help: help, kind: kindHistogram, hist: h}
	switch len(labels) {
	case 0:
	case 2:
		in.labelKey, in.labelVal = labels[0], labels[1]
	default:
		panic("obs: Histogram takes zero or one constant label pair")
	}
	r.add(in)
}

// WritePrometheus renders every instrument in registration order in the
// Prometheus text exposition format (version 0.0.4): one HELP/TYPE
// header per metric family followed by its series. Counter and gauge
// values are exact; histogram series follow the cumulative
// _bucket{le=...}/_sum/_count convention over this package's fixed
// bucket layout.
func (r *Registry) WritePrometheus(w io.Writer) error {
	prevFamily := ""
	for _, in := range r.instruments {
		full := in.name
		if r.namespace != "" {
			full = r.namespace + "_" + in.name
		}
		if full != prevFamily {
			typ := "counter"
			switch in.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				full, sanitizeHelp(in.help), full, typ); err != nil {
				return err
			}
			prevFamily = full
		}
		var err error
		switch in.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", full, in.counter.Load())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", full, in.counterFunc())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", full, in.gauge.Load())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", full, in.gaugeFunc())
		case kindHistogram:
			err = writeHistogram(w, full, in)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram's cumulative bucket series, sum
// and count, carrying the instrument's constant label through every
// series.
func writeHistogram(w io.Writer, full string, in instrument) error {
	snap := in.hist.Snapshot()
	label := ""
	if in.labelKey != "" {
		label = fmt.Sprintf("%s=%q,", in.labelKey, in.labelVal)
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += snap.Buckets[i]
		le := "+Inf"
		if upper := BucketUpper(i); !math.IsInf(upper, 1) {
			le = fmt.Sprintf("%d", uint64(upper))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", full, label, le, cum); err != nil {
			return err
		}
	}
	suffixLabel := ""
	if in.labelKey != "" {
		suffixLabel = fmt.Sprintf("{%s=%q}", in.labelKey, in.labelVal)
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", full, suffixLabel, snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", full, suffixLabel, snap.Count)
	return err
}

// sanitizeHelp keeps HELP lines single-line (the format's only escape
// concern we can actually produce).
func sanitizeHelp(help string) string {
	if !strings.ContainsAny(help, "\n\\") {
		return help
	}
	help = strings.ReplaceAll(help, `\`, `\\`)
	return strings.ReplaceAll(help, "\n", `\n`)
}
