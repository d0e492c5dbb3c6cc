/**
 * @file
 * The two cluster workloads: three SDF nodes, R=2, behind the async
 * client front door, driven open loop.
 *
 * Arrivals are Poisson and scheduled at their exact simulated times, so
 * the generator is never late; each op is timed from its arrival, and any
 * wait inside the client shows up in its latency (and, traced, in
 * client.queue_us_mean).
 */
#include <cmath>
#include <functional>
#include <string>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "obs/hub.h"
#include "stack_counters.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace sdf;

struct ClusterSpec
{
    const char *name;
    uint32_t keys;
    uint32_t value_bytes;
    double read_frac;
    double theta;
    double warmup_rate;  ///< Arrivals/s before the first measured step.
    double warmup_s;
    std::vector<double> rates;  ///< The rate ladder (one step = fixed rate).
    double step_s;
    /** Times the ladder is climbed; a step's stats pool its repeats. */
    int repeats;
    double slo_read_p99_us;  ///< Latency limit of max_rate_at_slo.
    /** Steps offered at most this rate feed the latency percentiles. */
    double latency_max_rate;
};

// 12k keys x 4 KiB x R=2 = 96 MiB stored, half the 192 MiB of memtables.
const ClusterSpec kReadHot{"cluster_read_hot", 12000, 4096, 0.95, 0.99,
                           40000, 0.1,
                           {40000, 80000, 100000, 110000, 120000, 125000, 130000, 135000}, 0.3,
                           5, 1000.0, 110000};

// 24k keys x 16 KiB = 384 MiB unique (2x the memtables), 768 MiB stored.
// Keys are uniform (theta 0): Zipfian updates would rewrite a few hot keys
// in place in the memtables and never fill them.
const ClusterSpec kWriteMix{"cluster_write_mix", 24000, 16384, 0.5, 0.0,
                            4000, 0.1, {8000}, 40.0, 1, 4000.0, 8000};

// The data set is fixed, like a YCSB key space; the seed drives the traffic.
constexpr uint64_t kKeySetSeed = 0x5EED;
constexpr uint32_t kPreloadWindow = 4;
constexpr double kLadderGapNs = 50e6;
constexpr int kMeasuredSlices = 200;
constexpr uint32_t kAuditWindow = 64;

/**
 * One generated client op; step -1 is the unmeasured warmup. The op is due
 * at the exact Poisson time `due` and issued at the first whole simulated
 * nanosecond not before it, `t_ns`; latency is timed from `due`.
 */
struct Op
{
    double due;
    int64_t t_ns;
    uint32_t key;
    int16_t step;
    bool put;
};

std::vector<Op>
GenOps(const ClusterSpec &s, uint64_t seed, StreamHash &h)
{
    Rng arrivals(seed * 4 + 1), mix(seed * 4 + 2), pick(seed * 4 + 3);
    const Zipf zipf(s.keys, s.theta > 0.0 ? s.theta : 0.5);
    std::vector<Op> ops;
    double phase_start = 0.0;
    auto phase = [&](double rate, double dur_s, int16_t step) {
        const double end = phase_start + dur_s * 1e9;
        double t = phase_start + arrivals.Exp(1e9 / rate);
        while (t < end) {
            const uint64_t rank = s.theta > 0.0 ? zipf.Next(pick) : pick.Below(s.keys);
            Op op{t, static_cast<int64_t>(std::ceil(t)), static_cast<uint32_t>(rank),
                  step, mix.Uniform() > s.read_frac};
            h.Add(static_cast<uint64_t>(op.t_ns));
            h.Add(op.key * 2ULL + (op.put ? 1 : 0));
            ops.push_back(op);
            t += arrivals.Exp(1e9 / rate);
        }
        phase_start = end;
    };
    phase(s.warmup_rate, s.warmup_s, -1);
    for (int rep = 0; rep < s.repeats; ++rep) {
        for (size_t i = 0; i < s.rates.size(); ++i) {
            phase(s.rates[i], s.step_s, static_cast<int16_t>(i));
        }
        // An idle gap lets the backlog of the top steps drain before the
        // next climb, so it does not land in the next low step.
        phase_start += kLadderGapNs;
    }
    return ops;
}

/** Per-stage sums of the client critical-path spans (traced rounds). */
struct StageSums
{
    uint64_t count = 0;
    std::array<double, obs::kStageCount> ns{};
};

StageSums
ClientStages(const obs::Hub &hub)
{
    StageSums s;
    for (const auto &[op, st] : hub.stages().ops()) {
        if (op.rfind("client.path.", 0) != 0) continue;
        s.count += st.count;
        for (size_t i = 0; i < obs::kStageCount; ++i) {
            s.ns[i] += static_cast<double>(st.stage_sum_ns[i]);
        }
    }
    return s;
}

/** Node-level counters the cluster metrics need (summed over nodes). */
struct NodeTotals
{
    double messages = 0, timeouts = 0, retries = 0, deadline_drops = 0;
    double admitted = 0, shed = 0, peak_inflight = 0, replica_puts = 0;
};

NodeTotals
TakeNodeTotals(cluster::Cluster &cl)
{
    NodeTotals t;
    for (uint32_t i = 0; i < cl.node_count(); ++i) {
        cluster::StorageNode &n = cl.node(i);
        t.messages += static_cast<double>(n.net().messages());
        t.timeouts += static_cast<double>(n.net().rpc_stats().timeouts);
        t.retries += static_cast<double>(n.net().rpc_stats().retries);
        t.deadline_drops += static_cast<double>(n.net().rpc_stats().deadline_drops);
        t.admitted += static_cast<double>(n.admission().admitted);
        t.shed += static_cast<double>(n.admission().shed_overload);
        t.peak_inflight = std::max(
            t.peak_inflight, static_cast<double>(n.admission().peak_inflight));
        t.replica_puts += static_cast<double>(cl.router().node_puts(i));
    }
    return t;
}

Round
RunCluster(const ClusterSpec &spec, uint64_t seed, bool traced,
           const std::string &span_path)
{
    Round r;
    StreamHash hash;
    const std::vector<uint64_t> keys = MakeKeys(kKeySetSeed, spec.keys);
    for (uint64_t k : keys) hash.Add(k);
    const std::vector<Op> ops = GenOps(spec, seed, hash);
    r.op_hash = hash.value();

    // ---- Set-up: build the cluster and preload it through the router.
    const double setup0 = HostNow();
    sim::Simulator sim;
    obs::Hub hub;
    if (traced) sim.set_hub(&hub);
    cluster::ClusterConfig cc;
    cc.nodes = 3;
    cc.replication = 2;
    cc.node.kv.stack.backend = testbed::Backend::kBaiduSdf;
    cc.node.kv.stack.capacity_scale = 0.04;
    cc.node.kv.store.slice_count = 8;
    cc.node.admission_cap = 128;
    cc.breaker.enabled = true;
    cluster::Cluster cl(sim, cc);

    uint64_t preload_acked = 0;
    size_t preload_next = 0;
    uint32_t preload_inflight = 0;
    std::function<void()> preload = [&]() {
        while (preload_inflight < kPreloadWindow && preload_next < keys.size()) {
            ++preload_inflight;
            cl.router().Put(keys[preload_next++], spec.value_bytes,
                            [&](bool ok) {
                                --preload_inflight;
                                preload_acked += ok ? 1 : 0;
                                preload();
                            });
        }
    };
    preload();
    sim.Run();
    r.setup_host_s = HostNow() - setup0;
    if (preload_acked != keys.size()) {
        r.Violation("preload acked " + std::to_string(preload_acked) + " of " +
                    std::to_string(keys.size()) + " puts");
    }

    client::KvClientConfig kc;
    kc.window_per_node = 64;
    kc.queue_cap = 256;
    kc.batch_max = 8;
    kc.deadline = util::MsToNs(5);
    kc.hedge_reads = true;
    client::KvClient client(sim, cl.router(), kc);

    std::vector<StackView> views;
    for (uint32_t i = 0; i < cl.node_count(); ++i) {
        testbed::KvStack &st = cl.node(i).stack();
        views.push_back({st.store.get(), st.storage.layer.get(),
                         st.storage.io_stack.get(), st.storage.sdf.get(),
                         st.storage.ssd.get()});
    }

    // ---- Measured phase: open-loop arrivals at exact simulated times.
    const int64_t base = static_cast<int64_t>(sim.Now()) + util::UsToNs(1);
    const int64_t measure_start = base + static_cast<int64_t>(spec.warmup_s * 1e9);
    const double step_s = spec.step_s * spec.repeats;  // Per rate, all repeats.
    const int64_t end = base + static_cast<int64_t>(std::ceil(ops.back().due)) + 1;
    std::vector<OpTally> steps(spec.rates.size());
    OpTally warm;
    auto tally = [&](int16_t s) -> OpTally & { return s < 0 ? warm : steps[s]; };
    uint64_t settled = 0;
    Tracer tracer;
    uint64_t call_ns = 0, calls = 0;

    std::function<void(size_t)> fire = [&](size_t i) {
        const Op op = ops[i];
        const double due = static_cast<double>(base) + op.due;
        OpTally &t = tally(op.step);
        ++t.issued;
        const uint64_t key = keys[op.key];
        uint32_t span = 0;
        if (traced) {
            span = tracer.Open(op.put ? "client.put" : "client.get",
                               static_cast<int64_t>(sim.Now()), i + 1);
        }
        auto close = [&, span]() {
            if (span != 0) tracer.Close(span, static_cast<int64_t>(sim.Now()));
        };
        const uint64_t h0 = traced ? HostNowNs() : 0;
        if (op.put) {
            client.Put(key, spec.value_bytes, [&, due, close, op](kv::OpStatus st) {
                close();
                OpTally &t = tally(op.step);
                ++t.settled;
                ++settled;
                if (st == kv::OpStatus::kOk) {
                    ++t.ok;
                    t.put_bytes += spec.value_bytes;
                    t.write_ns.push_back(static_cast<double>(sim.Now()) - due);
                } else if (st == kv::OpStatus::kOverloaded) {
                    ++t.overloaded;
                } else if (st == kv::OpStatus::kDeadlineExceeded) {
                    ++t.deadline;
                } else {
                    ++t.errors;
                }
            });
        } else {
            client.Get(key, [&, due, close, op, key](const kv::GetResult &res) {
                close();
                OpTally &t = tally(op.step);
                ++t.settled;
                ++settled;
                if (res.status == kv::OpStatus::kOk && res.ok) {
                    if (!res.found || res.value_size != spec.value_bytes) {
                        ++t.errors;
                        r.Violation("get of key " + std::to_string(key) +
                                    " returned found=" + std::to_string(res.found) +
                                    " size=" + std::to_string(res.value_size));
                        return;
                    }
                    ++t.ok;
                    t.read_bytes += res.value_size;
                    t.read_ns.push_back(static_cast<double>(sim.Now()) - due);
                } else if (res.status == kv::OpStatus::kOverloaded) {
                    ++t.overloaded;
                } else if (res.status == kv::OpStatus::kDeadlineExceeded) {
                    ++t.deadline;
                } else {
                    ++t.errors;
                }
            });
        }
        if (traced) {
            const uint64_t ns = HostNowNs() - h0;
            call_ns += ns;
            ++calls;
            tracer.AddHost(span, ns);
        }
        if (i + 1 < ops.size()) {
            sim.ScheduleAt(static_cast<util::TimeNs>(base + ops[i + 1].t_ns),
                           [&fire, i]() { fire(i + 1); });
        }
    };
    sim.ScheduleAt(static_cast<util::TimeNs>(base + ops[0].t_ns),
                   [&fire]() { fire(0); });

    sim.RunUntil(static_cast<util::TimeNs>(measure_start));
    const Counters c0 = Snapshot(views, static_cast<int64_t>(sim.Now()),
                                 sim.events_processed());
    const NodeTotals n0 = TakeNodeTotals(cl);
    const StageSums s0 = traced ? ClientStages(hub) : StageSums{};
    const double link0 = traced ? SumHubCounters(hub, "link.to_host_bytes") : 0.0;
    const client::ClientStats cs0 = client.stats();
    const client::HedgeStats hs0 = client.hedge_stats();

    RunMeasured(sim, end, kMeasuredSlices, r);
    const Counters c1 = Snapshot(views, static_cast<int64_t>(sim.Now()),
                                 sim.events_processed());
    const double link1 = traced ? SumHubCounters(hub, "link.to_host_bytes") : 0.0;
    // Every op carries a 5 ms deadline, so all settle shortly after the
    // last arrival; step in 10 ms slices so the drain is deterministic.
    for (int i = 0; i < 100 && settled < ops.size(); ++i) {
        RunMeasured(sim, static_cast<int64_t>(sim.Now()) + util::MsToNs(10), 1, r);
    }
    r.events = sim.events_processed() - c0.events;
    const NodeTotals n1 = TakeNodeTotals(cl);
    const StageSums s1 = traced ? ClientStages(hub) : StageSums{};
    const client::ClientStats cs1 = client.stats();
    const client::HedgeStats hs1 = client.hedge_stats();

    // ---- Drain, then the output checks.
    sim.Run();
    uint64_t issued = warm.issued, settled_all = warm.settled, ok_all = warm.ok,
             failed_all = warm.failed();
    for (const OpTally &t : steps) {
        issued += t.issued;
        settled_all += t.settled;
        ok_all += t.ok;
        failed_all += t.failed();
    }
    if (issued != ops.size() || settled_all != issued ||
        ok_all + failed_all != issued) {
        r.Violation("conservation: generated " + std::to_string(ops.size()) +
                    " issued " + std::to_string(issued) + " settled " +
                    std::to_string(settled_all) + " ok " + std::to_string(ok_all) +
                    " failed " + std::to_string(failed_all));
    }
    if (cs1.gets + cs1.puts != ops.size()) {
        r.Violation("client front door saw " + std::to_string(cs1.gets + cs1.puts) +
                    " ops, generated " + std::to_string(ops.size()));
    }

    // Read back every acked write (the preload and every acked update:
    // all keys), checking presence and size.
    uint64_t lost = 0;
    size_t audit_next = 0;
    uint32_t audit_inflight = 0;
    std::function<void()> audit = [&]() {
        while (audit_inflight < kAuditWindow && audit_next < keys.size()) {
            ++audit_inflight;
            const uint64_t key = keys[audit_next++];
            cl.router().Get(key, [&, key](const kv::GetResult &res) {
                --audit_inflight;
                if (!res.ok || !res.found || res.value_size != spec.value_bytes) {
                    ++lost;
                    r.Violation("audit: acked key " + std::to_string(key) +
                                " missing or wrong size");
                }
                audit();
            });
        }
    };
    audit();
    sim.Run();
    if (audit_next != keys.size() || audit_inflight != 0) {
        r.Violation("audit did not finish");
    }

    // ---- Metrics.
    OpTally all;
    double max_rate = 0.0;
    r.report.push_back("step  offered/s  issued  ok  failed  goodput/s  "
                       "read_p50_us  read_p99_us  pass");
    for (size_t i = 0; i < steps.size(); ++i) {
        OpTally &t = steps[i];
        std::sort(t.read_ns.begin(), t.read_ns.end());
        const double p50 = Quantile(t.read_ns, 0.5) / 1e3;
        const double p99 = Quantile(t.read_ns, 0.99) / 1e3;
        const double goodput = static_cast<double>(t.ok) / step_s;
        const bool pass = p99 <= spec.slo_read_p99_us &&
                          static_cast<double>(t.ok) >=
                              0.99 * static_cast<double>(t.issued);
        if (pass) max_rate = std::max(max_rate, goodput);
        char line[200];
        std::snprintf(line, sizeof line,
                      "%4zu  %9.0f  %6llu  %6llu  %6llu  %9.1f  %11.2f  %11.2f  %s",
                      i, spec.rates[i], static_cast<unsigned long long>(t.issued),
                      static_cast<unsigned long long>(t.ok),
                      static_cast<unsigned long long>(t.failed()), goodput, p50,
                      p99, pass ? "yes" : "no");
        r.report.push_back(line);
        all.issued += t.issued;
        all.settled += t.settled;
        all.ok += t.ok;
        all.overloaded += t.overloaded;
        all.deadline += t.deadline;
        all.errors += t.errors;
        all.read_bytes += t.read_bytes;
        all.put_bytes += t.put_bytes;
        if (spec.rates[i] <= spec.latency_max_rate) {
            all.read_ns.insert(all.read_ns.end(), t.read_ns.begin(), t.read_ns.end());
            all.write_ns.insert(all.write_ns.end(), t.write_ns.begin(), t.write_ns.end());
        }
    }
    r.attempted = issued;
    r.failed = failed_all + lost;
    r.ops_completed = static_cast<double>(all.settled);

    EndToEndInputs in;
    in.sim_s = step_s * static_cast<double>(steps.size());
    in.max_rate_at_slo = max_rate;
    in.latency_scope = "steps offered <= " + std::to_string(static_cast<int>(spec.latency_max_rate)) + "/s";
    in.write_dominant = &spec == &kWriteMix;
    in.raw_read_bw = RawNandBandwidth(views, true);
    in.raw_write_bw = RawNandBandwidth(views, false);
    in.nand_programmed_bytes =
        static_cast<double>(c1.nand_programmed_bytes - c0.nand_programmed_bytes);
    in.lost_writes = lost;
    FillEndToEnd(r, all, in);

    // ---- Traffic self-checks.
    const double gets = static_cast<double>(c1.kv.gets - c0.kv.gets);
    const double mem_hit =
        Ratio(static_cast<double>(c1.kv.gets_from_memtable - c0.kv.gets_from_memtable),
              gets);
    const std::string gets_base = std::to_string(static_cast<uint64_t>(gets)) +
                                  " slice gets";
    if (&spec == &kReadHot) {
        const double reads = static_cast<double>(all.read_ns.size());
        const double page_reads = static_cast<double>(c1.nand_reads - c0.nand_reads);
        r.checks.push_back({"kv.memtable_hit_ratio", mem_hit, gets_base, ">= 0.99",
                            mem_hit >= 0.99});
        r.checks.push_back({"flash_page_reads_per_client_read",
                            Ratio(page_reads, reads),
                            std::to_string(static_cast<uint64_t>(reads)) +
                                " client reads",
                            "< 0.05", Ratio(page_reads, reads) < 0.05});
    } else {
        uint64_t min_rounds = UINT64_MAX;
        for (size_t i = 0; i < c1.slice_compactions.size(); ++i) {
            min_rounds = std::min(min_rounds,
                                  c1.slice_compactions[i] - c0.slice_compactions[i]);
        }
        r.checks.push_back({"min_compactions_per_slice",
                            static_cast<double>(min_rounds),
                            std::to_string(c1.slice_compactions.size()) + " slices",
                            ">= 2", min_rounds >= 2});
        r.checks.push_back({"kv.memtable_hit_ratio", mem_hit, gets_base, "<= 0.8",
                            mem_hit <= 0.8});
    }

    if (!traced) return r;

    // ---- Per-layer metrics (traced rounds only).
    const double ops_settled = static_cast<double>(all.settled);
    AddLayerMetrics(c0, c1, ops_settled, all.put_bytes, r.layer);
    auto &L = r.layer;
    auto stage_us = [&](obs::Stage st) {
        const double n = static_cast<double>(s1.count - s0.count);
        const auto i = static_cast<size_t>(st);
        return Ratio(s1.ns[i] - s0.ns[i], n) / 1e3;
    };
    L["sim.host_ns_per_event"] = Ratio(r.measured_host_s * 1e9, static_cast<double>(r.events));
    L["client.queue_us_mean"] = stage_us(obs::Stage::kClientQueue);
    L["client.host_ns_per_call"] = Ratio(static_cast<double>(call_ns),
                                         static_cast<double>(calls));
    const double cgets = static_cast<double>(cs1.gets - cs0.gets);
    L["client.batch_fill"] =
        Ratio(static_cast<double>(cs1.batched_gets - cs0.batched_gets),
              static_cast<double>(cs1.batches - cs0.batches));
    const double launched = static_cast<double>(hs1.launched - hs0.launched);
    L["client.hedge_rate"] = Ratio(launched, cgets);
    L["client.hedge_win_ratio"] =
        Ratio(static_cast<double>(hs1.wins - hs0.wins), launched);
    L["client.shed_frac"] =
        Ratio(static_cast<double>(cs1.shed_queue_full - cs0.shed_queue_full),
              ops_settled);
    L["net.wire_us_mean"] = stage_us(obs::Stage::kRpcWire);
    L["net.msgs_per_op"] = Ratio(n1.messages - n0.messages, ops_settled);
    L["net.rpc_timeouts"] = n1.timeouts - n0.timeouts;
    L["net.rpc_retries"] = n1.retries - n0.retries;
    L["net.deadline_drops"] = n1.deadline_drops - n0.deadline_drops;
    L["cluster.admission_us_mean"] = stage_us(obs::Stage::kAdmission);
    L["cluster.server_handle_us_mean"] = stage_us(obs::Stage::kServerHandle);
    L["cluster.admission_shed_frac"] =
        Ratio(n1.shed - n0.shed, (n1.admitted - n0.admitted) + (n1.shed - n0.shed));
    L["cluster.peak_inflight"] = n1.peak_inflight;
    L["cluster.replica_puts_per_put"] =
        Ratio(n1.replica_puts - n0.replica_puts,
              static_cast<double>(cs1.puts - cs0.puts));
    L["kv.storage_us_mean"] = stage_us(obs::Stage::kStorage);
    double link_bw = 0.0;
    for (const StackView &v : views) {
        if (v.sdf != nullptr) link_bw += v.sdf->config().link.to_host_bytes_per_sec;
    }
    L["controller.link_util"] =
        Ratio(link1 - link0,
              link_bw * static_cast<double>(c1.sim_ns - c0.sim_ns) / 1e9);
    if (!span_path.empty() && !tracer.WriteCsv(span_path)) {
        r.Violation("could not write spans to " + span_path);
    }
    return r;
}

}  // namespace

Round
RunClusterReadHot(uint64_t seed, bool traced, const std::string &span_path)
{
    return RunCluster(kReadHot, seed, traced, span_path);
}

Round
RunClusterWriteMix(uint64_t seed, bool traced, const std::string &span_path)
{
    return RunCluster(kWriteMix, seed, traced, span_path);
}

uint64_t
ClusterOpStreamHash(const std::string &workload, uint64_t seed)
{
    const ClusterSpec &spec = workload == kReadHot.name ? kReadHot : kWriteMix;
    StreamHash h;
    for (uint64_t k : MakeKeys(kKeySetSeed, spec.keys)) h.Add(k);
    GenOps(spec, seed, h);
    return h.value();
}

}  // namespace perfbench
