package obs

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// RegisterRecorder exposes a metrics.Recorder's live totals through the
// registry as scrape-time gauges, so the wire-level accounting the paper's
// evaluation uses (per-MsgClass messages, bytes, write delays, stale reads)
// is visible on /metrics and /debug/vars without double counting.
func RegisterRecorder(r *Registry, rec *metrics.Recorder) {
	if r == nil || rec == nil {
		return
	}
	r.GaugeFunc("lease_wire_messages_total", func() float64 {
		return float64(rec.Totals().Messages)
	})
	r.GaugeFunc("lease_wire_bytes_total", func() float64 {
		return float64(rec.Totals().Bytes)
	})
	for _, c := range metrics.Classes() {
		c := c
		name := fmt.Sprintf("lease_wire_class_messages_total{class=%q}", c.String())
		r.GaugeFunc(name, func() float64 {
			return float64(rec.Totals().ByClass[c])
		})
	}
	r.GaugeFunc("lease_writes_total", func() float64 {
		writes, _, _ := rec.WriteStats()
		return float64(writes)
	})
	r.GaugeFunc("lease_write_wait_mean_seconds", func() float64 {
		_, mean, _ := rec.WriteStats()
		return mean.Seconds()
	})
	r.GaugeFunc("lease_write_wait_max_seconds", func() float64 {
		_, _, max := rec.WriteStats()
		return max.Seconds()
	})
	r.GaugeFunc("lease_reads_total", func() float64 {
		reads, _ := rec.ReadStats()
		return float64(reads)
	})
	r.GaugeFunc("lease_stale_reads_total", func() float64 {
		_, stale := rec.ReadStats()
		return float64(stale)
	})
}

// RegisterBatchStats exposes a transport.BatchStats through the registry as
// the lease_batch_* series: flush and frame totals, coalesced-frame count,
// and the batch-size histogram as cumulative-style buckets keyed by upper
// bound. The snapshot is taken at scrape time, so registration costs
// nothing on the wire path.
func RegisterBatchStats(r *Registry, node string, bs *transport.BatchStats) {
	if r == nil || bs == nil {
		return
	}
	r.GaugeFunc(fmt.Sprintf("lease_batch_flushes_total{node=%q}", node), func() float64 {
		return float64(bs.Snapshot().Flushes)
	})
	r.GaugeFunc(fmt.Sprintf("lease_batch_frames_total{node=%q}", node), func() float64 {
		return float64(bs.Snapshot().Frames)
	})
	r.GaugeFunc(fmt.Sprintf("lease_batch_coalesced_frames_total{node=%q}", node), func() float64 {
		return float64(bs.Snapshot().Coalesced)
	})
	for i := 0; i < transport.BatchSizeBuckets; i++ {
		i := i
		name := fmt.Sprintf("lease_batch_size_flushes{node=%q,le=%q}",
			node, transport.BatchSizeBucketLabel(i))
		r.GaugeFunc(name, func() float64 {
			return float64(bs.Snapshot().SizeCounts[i])
		})
	}
}
