package swarm

import (
	"advnet/internal/metrics"
)

// EmitMetrics records the swarm run into reg under the unified schema
// (DESIGN.md §8.6): scheduler throughput and the wall/virtual ratio as
// higher-is-better scalars, QoE/fairness aggregates as informational
// metrics and distributions (their level is workload-defined; with a fixed
// seed they are deterministic, and golden tests pin them). wallSeconds is
// the run's wall time as measured by the driver.
func (res *Result) EmitMetrics(reg *metrics.Registry, wallSeconds float64) {
	reg.SetMetric("completed_clients", float64(res.CompletedClients), metrics.Info("clients"))
	reg.SetMetric("failed_groups", float64(len(res.FailedGroups)), metrics.Info("groups"))
	reg.SetMetric("events", float64(res.Events), metrics.Info("events"))
	reg.SetMetric("virtual_seconds", res.VirtualSeconds, metrics.Info("s"))
	reg.SetMetric("wall_seconds", wallSeconds, metrics.Info("s"))
	if wallSeconds > 0 {
		reg.SetMetric("events_per_sec", float64(res.Events)/wallSeconds, metrics.HigherIsBetter("events/s"))
		reg.SetMetric("speedup_over_realtime", res.VirtualSeconds/wallSeconds, metrics.HigherIsBetter("x"))
	}
	reg.SetMetric("jain", res.Jain, metrics.Info(""))
	reg.SetDistribution("qoe_per_chunk", res.QoEPerChunk, metrics.Info("qoe"))
	reg.SetDistribution("qoe_per_client", res.QoEPerClient, metrics.Info("qoe"))
	reg.SetDistribution("rebuffer_s_per_client", res.RebufferPerClient, metrics.Info("s"))
	reg.SetDistribution("bits_per_client", res.BitsPerClient, metrics.Info("bits"))
	reg.SetDistribution("group_jain", res.GroupJain, metrics.Info(""))
}
