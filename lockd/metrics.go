package lockd

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"sublock/internal/promtext"
)

// Metrics exposition. Two layers share the /metrics endpoint:
//
//   - lockd_* families below: per-shard held/waiting/table gauges (live
//     names, and those of them holding a lock set) and the robustness
//     counters (lease expiries, sheds, fencing rejections);
//   - the abortable/obs families (abortable_acquire_ns histograms and
//     friends), one collector per shard attached to every lock set while
//     it serves a name in that shard, so acquire-latency histograms come straight off the
//     native lock's observed Enter path.

// shardCounters maps each per-shard counter family to its field.
var shardCounters = []struct {
	name, help string
	get        func(*shard) *atomic.Int64
}{
	{"lockd_acquires_total", "Leases granted.", func(sh *shard) *atomic.Int64 { return &sh.acquires }},
	{"lockd_wait_timeouts_total", "Acquires whose wait budget elapsed.", func(sh *shard) *atomic.Int64 { return &sh.timeouts }},
	{"lockd_shed_total", "Acquires shed by the shard waiter budget or lock-table cap.", func(sh *shard) *atomic.Int64 { return &sh.sheds }},
	{"lockd_lease_expiries_total", "Leases reclaimed at expiry (crashed or partitioned holders).", func(sh *shard) *atomic.Int64 { return &sh.expiries }},
	{"lockd_fencing_rejections_total", "Releases/renews rejected by fencing-token comparison.", func(sh *shard) *atomic.Int64 { return &sh.fencingRejects }},
	{"lockd_releases_total", "Voluntary releases accepted.", func(sh *shard) *atomic.Int64 { return &sh.releases }},
	{"lockd_renews_total", "Lease renewals accepted.", func(sh *shard) *atomic.Int64 { return &sh.renews }},
	{"lockd_locks_retired_total", "Named locks retired (idle TTL or LRU eviction).", func(sh *shard) *atomic.Int64 { return &sh.retired }},
}

// WriteMetrics writes the lockd families followed by the per-shard
// abortable/obs families in Prometheus text exposition format.
func (s *Server) WriteMetrics(w io.Writer) error {
	pw := promtext.NewWriter(w)

	pw.Metric("lockd_held", "Currently held leases per shard.", "gauge")
	for _, sh := range s.shards {
		pw.Sample("lockd_held", shardLabel(sh.id), sh.held.Load())
	}
	pw.Metric("lockd_waiting", "In-flight acquires per shard (waiter-budget usage).", "gauge")
	for _, sh := range s.shards {
		pw.Sample("lockd_waiting", shardLabel(sh.id), sh.waiting.Load())
	}
	pw.Metric("lockd_locks", "Live named locks per shard.", "gauge")
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.entries)
		sh.mu.Unlock()
		pw.Sample("lockd_locks", shardLabel(sh.id), int64(n))
	}
	pw.Metric("lockd_locks_attached", "Live named locks per shard holding a lock set (pinned or held); the rest keep only lease state.", "gauge")
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := sh.attached
		sh.mu.Unlock()
		pw.Sample("lockd_locks_attached", shardLabel(sh.id), int64(n))
	}

	for _, cf := range shardCounters {
		pw.Metric(cf.name, cf.help, "counter")
		for _, sh := range s.shards {
			pw.Sample(cf.name, shardLabel(sh.id), cf.get(sh).Load())
		}
	}

	pw.Metric("lockd_global_shed_total", "Acquires shed by the global in-flight gate.", "counter")
	pw.Sample("lockd_global_shed_total", nil, s.globalSheds.Load())
	pw.Metric("lockd_inflight", "In-flight requests (global gate usage).", "gauge")
	pw.Sample("lockd_inflight", nil, s.inflight.Load())
	pw.Metric("lockd_draining", "1 while the server is draining.", "gauge")
	var draining int64
	if s.draining.Load() {
		draining = 1
	}
	pw.Sample("lockd_draining", nil, draining)
	if err := pw.Err(); err != nil {
		return err
	}

	return s.obsReg.WritePrometheus(w)
}

func shardLabel(id int) []promtext.Label {
	return []promtext.Label{{Name: "shard", Value: strconv.Itoa(id)}}
}

// MetricsHandler serves WriteMetrics; ?format=json returns the per-shard
// obs snapshots (the lockd counters are available via Stats).
func (s *Server) MetricsHandler() http.Handler {
	obsHandler := s.obsReg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			obsHandler.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}
