package emit

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// GaugeSnapshot is a point-in-time reading of the engine's per-shard
// gauges, fetched lock-free at scrape time (not derived from events, so a
// dropped event can never skew a gauge).
type GaugeSnapshot struct {
	// QueueDepth is, per shard, the submitters waiting for its lock.
	QueueDepth []int64
	// Retained is the per-shard count of retained completed transactions —
	// the storage the paper's deletion conditions bound.
	Retained []int64
	// Prepared is the per-shard count of prepared-but-undecided 2PC
	// sub-transactions (each pins its node against deletion).
	Prepared []int64
	// RetentionWatermark is the retention governor's configured watermark
	// over the engine-wide retained count (0: governor disabled).
	RetentionWatermark int64
	// WALAppendedBytes is the per-shard count of WAL frame bytes appended
	// since the store was opened (nil: no durability layer configured).
	WALAppendedBytes []int64
	// WALFsyncs is the per-shard count of log syncs that reached the
	// backing medium since the store was opened.
	WALFsyncs []int64
	// CheckpointSeq is the per-shard LSN covered by the latest checkpoint
	// (0 before the first); it survives restarts.
	CheckpointSeq []int64
}

// GaugeSource supplies gauges at scrape time.
type GaugeSource func() GaugeSnapshot

// latencyBuckets are the histogram upper bounds, in seconds. Sessions on a
// healthy engine commit in microseconds; the tail covers 2PC fan-out,
// saturated queues, and deadline-bound stragglers.
var latencyBuckets = []float64{
	16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
}

// numLatencyBuckets counts the finite buckets; the histogram array carries
// one extra slot for +Inf.
const numLatencyBuckets = 10

// histogram is one Prometheus histogram (cumulative rendering happens at
// scrape).
type histogram struct {
	buckets [numLatencyBuckets + 1]uint64 // +Inf last
	sum     float64
	count   uint64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.buckets[i]++
	h.sum += seconds
	h.count++
}

// shardCounters is one shard's event counter matrix.
type shardCounters [numKinds][numClasses]uint64

// MetricsSink aggregates the event stream into Prometheus metrics and
// serves them as an http.Handler (the /metrics endpoint):
//
//	txgc_events_total{shard,kind,class}     step/lifecycle events per shard
//	txgc_deleted_total{shard}               transactions reclaimed by sweeps
//	txgc_sessions_total{outcome}            client sessions ended, by outcome
//	txgc_session_latency_seconds{outcome}   session wall-clock histograms
//	txgc_queue_depth{shard}                 submitters waiting for the shard lock
//	txgc_retained{shard}                    retained completed transactions
//	txgc_prepared{shard}                    prepared-undecided 2PC gauge
//	txgc_reaped_total                       stragglers aborted by the governor
//	txgc_retention_watermark                the governor's retained watermark
//	txgc_events_emitted_total               events accepted onto the bus
//	txgc_events_dropped_total               events dropped on ring overflow
//
// Consume runs on the bus's drain goroutine; ServeHTTP may run on any
// number of scrape goroutines. One mutex covers both — scrapes are rare
// and the counter update is tens of nanoseconds, so the drain goroutine
// never stalls meaningfully.
type MetricsSink struct {
	mu sync.Mutex
	// shards maps shard index (NoShard included) to its counter matrix.
	shards map[int32]*shardCounters
	// deleted accumulates KindSweep N per shard.
	deleted map[int32]uint64
	// reaped counts KindReap events — stragglers aborted by the retention
	// governor. Rendered even at zero so dashboards can alert on its rate
	// without waiting for the first reap to create the series.
	reaped uint64
	// sessions are the client-session end histograms per outcome class.
	sessions [numClasses]histogram
	started  time.Time

	gauges GaugeSource
	bus    *Bus
}

// NewMetricsSink returns an empty metrics sink. Wire gauges with SetGauges
// and drop counters with SetBus (both optional).
func NewMetricsSink() *MetricsSink {
	return &MetricsSink{
		shards:  make(map[int32]*shardCounters),
		deleted: make(map[int32]uint64),
		started: time.Now(),
	}
}

// SetGauges installs the engine's gauge source, polled at scrape time.
func (m *MetricsSink) SetGauges(g GaugeSource) {
	m.mu.Lock()
	m.gauges = g
	m.mu.Unlock()
}

// SetBus names the bus whose emitted/dropped counters the endpoint should
// expose.
func (m *MetricsSink) SetBus(b *Bus) {
	m.mu.Lock()
	m.bus = b
	m.mu.Unlock()
}

// Consume implements Sink.
func (m *MetricsSink) Consume(ev Event) {
	if int(ev.Kind) >= numKinds || int(ev.Class) >= numClasses {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sc, ok := m.shards[ev.Shard]
	if !ok {
		sc = new(shardCounters)
		m.shards[ev.Shard] = sc
	}
	sc[ev.Kind][ev.Class]++
	if ev.Kind == KindSweep && ev.N > 0 {
		m.deleted[ev.Shard] += uint64(ev.N)
	}
	if ev.Kind == KindReap {
		m.reaped++
	}
	if ev.Shard == NoShard && (ev.Kind == KindCommit || ev.Kind == KindAbort) {
		m.sessions[ev.Class].observe(float64(ev.DurNanos) / 1e9)
	}
}

// Close implements Sink.
func (m *MetricsSink) Close() error { return nil }

// Counter returns the current count for (shard, kind, class) — test and
// programmatic access to what the endpoint renders.
func (m *MetricsSink) Counter(shard int32, kind Kind, class Class) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sc, ok := m.shards[shard]; ok {
		return sc[kind][class]
	}
	return 0
}

// ServeHTTP renders the Prometheus text exposition format.
func (m *MetricsSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.mu.Lock()
	defer m.mu.Unlock()

	shardIDs := make([]int32, 0, len(m.shards))
	for id := range m.shards {
		shardIDs = append(shardIDs, id)
	}
	sort.Slice(shardIDs, func(i, j int) bool { return shardIDs[i] < shardIDs[j] })

	shardLabel := func(id int32) string {
		if id == NoShard {
			return "client"
		}
		return strconv.Itoa(int(id))
	}

	fmt.Fprint(w, "# HELP txgc_events_total Lifecycle events by shard, kind, and outcome class.\n# TYPE txgc_events_total counter\n")
	for _, id := range shardIDs {
		sc := m.shards[id]
		for k := 0; k < numKinds; k++ {
			for c := 0; c < numClasses; c++ {
				if n := sc[k][c]; n > 0 {
					fmt.Fprintf(w, "txgc_events_total{shard=%q,kind=%q,class=%q} %d\n",
						shardLabel(id), Kind(k), Class(c), n)
				}
			}
		}
	}

	fmt.Fprint(w, "# HELP txgc_deleted_total Completed transactions reclaimed by deletion-policy sweeps.\n# TYPE txgc_deleted_total counter\n")
	for _, id := range shardIDs {
		if n := m.deleted[id]; n > 0 {
			fmt.Fprintf(w, "txgc_deleted_total{shard=%q} %d\n", shardLabel(id), n)
		}
	}

	fmt.Fprint(w, "# HELP txgc_sessions_total Client sessions ended, by outcome class.\n# TYPE txgc_sessions_total counter\n")
	for c := 0; c < numClasses; c++ {
		if m.sessions[c].count > 0 {
			fmt.Fprintf(w, "txgc_sessions_total{outcome=%q} %d\n", Class(c), m.sessions[c].count)
		}
	}

	fmt.Fprint(w, "# HELP txgc_session_latency_seconds Session wall-clock latency from Begin to commit/abort, by outcome class.\n# TYPE txgc_session_latency_seconds histogram\n")
	for c := 0; c < numClasses; c++ {
		h := &m.sessions[c]
		if h.count == 0 {
			continue
		}
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(w, "txgc_session_latency_seconds_bucket{outcome=%q,le=%q} %d\n",
				Class(c), strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.buckets[len(latencyBuckets)]
		fmt.Fprintf(w, "txgc_session_latency_seconds_bucket{outcome=%q,le=\"+Inf\"} %d\n", Class(c), cum)
		fmt.Fprintf(w, "txgc_session_latency_seconds_sum{outcome=%q} %g\n", Class(c), h.sum)
		fmt.Fprintf(w, "txgc_session_latency_seconds_count{outcome=%q} %d\n", Class(c), h.count)
	}

	if m.gauges != nil {
		gs := m.gauges()
		writeGauge := func(name, help string, vals []int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for i, v := range vals {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, v)
			}
		}
		writeGauge("txgc_queue_depth", "Per-shard submitters waiting for the shard's lock.", gs.QueueDepth)
		writeGauge("txgc_retained", "Per-shard retained completed transactions (the storage deletion reclaims).", gs.Retained)
		writeGauge("txgc_prepared", "Per-shard prepared-but-undecided 2PC sub-transactions (pinned).", gs.Prepared)
		fmt.Fprint(w, "# HELP txgc_retention_watermark Retention governor watermark over the engine-wide retained count (0: disabled).\n# TYPE txgc_retention_watermark gauge\n")
		fmt.Fprintf(w, "txgc_retention_watermark %d\n", gs.RetentionWatermark)
		if gs.WALAppendedBytes != nil {
			writeCounter := func(name, help string, vals []int64) {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
				for i, v := range vals {
					fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, v)
				}
			}
			writeCounter("txgc_wal_appended_bytes_total", "Per-shard WAL frame bytes appended since the store opened.", gs.WALAppendedBytes)
			writeCounter("txgc_wal_fsyncs_total", "Per-shard WAL syncs that reached the backing medium since the store opened.", gs.WALFsyncs)
			writeGauge("txgc_checkpoint_seq", "Per-shard LSN covered by the latest checkpoint (0 before the first).", gs.CheckpointSeq)
		}
	}

	fmt.Fprint(w, "# HELP txgc_reaped_total Stragglers aborted by the retention governor.\n# TYPE txgc_reaped_total counter\n")
	fmt.Fprintf(w, "txgc_reaped_total %d\n", m.reaped)

	if m.bus != nil {
		fmt.Fprint(w, "# HELP txgc_events_emitted_total Events accepted onto the bus ring.\n# TYPE txgc_events_emitted_total counter\n")
		fmt.Fprintf(w, "txgc_events_emitted_total %d\n", m.bus.Emitted())
		fmt.Fprint(w, "# HELP txgc_events_dropped_total Events dropped on ring overflow (the hot path never blocks).\n# TYPE txgc_events_dropped_total counter\n")
		fmt.Fprintf(w, "txgc_events_dropped_total %d\n", m.bus.Dropped())
	}

	fmt.Fprint(w, "# HELP txgc_uptime_seconds Seconds since the metrics sink was created.\n# TYPE txgc_uptime_seconds gauge\n")
	fmt.Fprintf(w, "txgc_uptime_seconds %g\n", time.Since(m.started).Seconds())
}
