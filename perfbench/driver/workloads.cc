#include "workloads.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint64_t ClusterOpStreamHash(const std::string &workload, uint64_t seed);
uint64_t SliceOpStreamHash(const std::string &workload, uint64_t seed);

void
RunMeasured(sdf::sim::Simulator &sim, int64_t until, int slices, Round &r)
{
    const auto start = static_cast<int64_t>(sim.Now());
    for (int i = 1; i <= slices; ++i) {
        const double h0 = HostNow();
        sim.RunUntil(static_cast<sdf::util::TimeNs>(start + (until - start) * i / slices));
        const double dt = HostNow() - h0;
        r.chunk_host_s.push_back(dt);
        r.measured_host_s += dt;
    }
}

std::string
LatencyLine(const char *what, const std::vector<double> &sorted)
{
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s latency: p50 %.2f us, p99 %.2f us, p99.9 %.2f us over %zu "
                  "samples",
                  what, Quantile(sorted, 0.5) / 1e3, Quantile(sorted, 0.99) / 1e3,
                  Quantile(sorted, 0.999) / 1e3, sorted.size());
    return line;
}

void
FillEndToEnd(Round &r, OpTally &t, const EndToEndInputs &in)
{
    std::sort(t.read_ns.begin(), t.read_ns.end());
    std::sort(t.write_ns.begin(), t.write_ns.end());
    auto &m = r.sim;
    m["goodput_ops_s"] = static_cast<double>(t.ok) / in.sim_s;
    m["client_mbps"] = (t.read_bytes + t.put_bytes) / in.sim_s / 1e6;
    m["read_p50_us"] = Quantile(t.read_ns, 0.5) / 1e3;
    m["read_p99_us"] = Quantile(t.read_ns, 0.99) / 1e3;
    m["read_p999_us"] = Quantile(t.read_ns, 0.999) / 1e3;
    m["write_p50_us"] = Quantile(t.write_ns, 0.5) / 1e3;
    m["write_p99_us"] = Quantile(t.write_ns, 0.99) / 1e3;
    m["write_p999_us"] = Quantile(t.write_ns, 0.999) / 1e3;
    m["max_rate_at_slo"] = in.max_rate_at_slo;
    const bool read_dominant = !in.write_dominant;
    m["flash_bw_util"] =
        Ratio(m["client_mbps"] * 1e6, read_dominant ? in.raw_read_bw : in.raw_write_bw);
    const double amp_base = in.write_amp_base >= 0.0 ? in.write_amp_base : t.put_bytes;
    m["write_amp"] = Ratio(in.nand_programmed_bytes, amp_base);
    m["failed_frac"] = Ratio(static_cast<double>(t.failed() + in.lost_writes),
                             static_cast<double>(t.issued));
    m["ok_frac"] = 1.0 - m["failed_frac"];

    char line[240];
    r.report.push_back("latency percentiles over " + in.latency_scope);
    r.report.push_back(LatencyLine("read", t.read_ns));
    r.report.push_back(LatencyLine("write", t.write_ns));
    std::snprintf(line, sizeof line,
                  "flash_bw_util %.4f = %.1f MB/s of %.1f MB/s raw NAND %s bandwidth",
                  m["flash_bw_util"], m["client_mbps"],
                  (read_dominant ? in.raw_read_bw : in.raw_write_bw) / 1e6,
                  read_dominant ? "read" : "write");
    r.report.push_back(line);
    std::snprintf(line, sizeof line,
                  "write_amp %.3f = %.1f MB programmed to NAND / %.1f MB acked to "
                  "clients",
                  m["write_amp"], in.nand_programmed_bytes / 1e6, amp_base / 1e6);
    r.report.push_back(line);
    std::snprintf(line, sizeof line,
                  "failed_frac %.6f = (%llu overloaded + %llu deadline + %llu "
                  "errors + %llu lost acked writes) / %llu issued",
                  m["failed_frac"], static_cast<unsigned long long>(t.overloaded),
                  static_cast<unsigned long long>(t.deadline),
                  static_cast<unsigned long long>(t.errors),
                  static_cast<unsigned long long>(in.lost_writes),
                  static_cast<unsigned long long>(t.issued));
    r.report.push_back(line);
}

uint64_t
OpStreamHash(const std::string &workload, uint64_t seed)
{
    if (workload.rfind("cluster_", 0) == 0) return ClusterOpStreamHash(workload, seed);
    return SliceOpStreamHash(workload, seed);
}

}  // namespace perfbench
