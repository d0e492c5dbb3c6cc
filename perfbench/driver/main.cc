/**
 * @file
 * perfbench: the repository benchmark's driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-dir <dir>]
 *
 * Untraced (--trace 0): repeats whole rounds of the workload (set-up,
 * measured phase, output checks) until --seconds of wall time are used,
 * at least three. Simulated metrics come from the first round and every
 * later round must reproduce them exactly; set-up time is that of the
 * least disturbed round.
 *
 * Traced (--trace 1): alternates an untraced and a traced round. The
 * traced round's simulated end-to-end metrics must equal the untraced
 * one's exactly; the per-layer metrics come from the traced round, and
 * the tracing overhead is the host-time difference of the pair.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * The exit code is 0 only when every output check passed.
 */
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Printed by untraced runs; bounded in BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"goodput_ops_s", "1/s"},   {"client_mbps", "MB/s"},
    {"read_p50_us", "us"},      {"read_p99_us", "us"},
    {"read_p999_us", "us"},     {"write_p50_us", "us"},
    {"write_p99_us", "us"},     {"write_p999_us", "us"},
    {"max_rate_at_slo", "1/s"}, {"flash_bw_util", "fraction"},
    {"ok_frac", "fraction"},       {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

// Printed by traced runs. Zero where a layer is absent from a workload.
const MetricDef kPerLayer[] = {
    {"write_amp", "ratio"},
    {"failed_frac", "fraction"},
    {"paper_gap_pct", "%"},
    {"trace.overhead_host_s", "s"},
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.ops_per_host_s", "1/s"},
    {"client.queue_us_mean", "us"},
    {"client.host_ns_per_call", "ns"},
    {"client.batch_fill", "count"},
    {"client.hedge_rate", "fraction"},
    {"client.hedge_win_ratio", "fraction"},
    {"client.shed_frac", "fraction"},
    {"net.wire_us_mean", "us"},
    {"net.msgs_per_op", "count"},
    {"net.rpc_timeouts", "count"},
    {"net.rpc_retries", "count"},
    {"net.deadline_drops", "count"},
    {"cluster.admission_us_mean", "us"},
    {"cluster.server_handle_us_mean", "us"},
    {"cluster.admission_shed_frac", "fraction"},
    {"cluster.peak_inflight", "count"},
    {"cluster.replica_puts_per_put", "count"},
    {"kv.storage_us_mean", "us"},
    {"kv.memtable_hit_ratio", "fraction"},
    {"kv.flushes", "count"},
    {"kv.compactions", "count"},
    {"kv.compaction_bytes_per_user_byte", "ratio"},
    {"kv.put_stalls", "count"},
    {"kv.get_retries", "count"},
    {"kv.patch_get_us_mean", "us"},
    {"kv.patch_put_ms_mean", "ms"},
    {"blocklayer.self_us_mean", "us"},
    {"blocklayer.inline_erase_frac", "fraction"},
    {"blocklayer.redirected_writes", "count"},
    {"blocklayer.failed_ops", "count"},
    {"host.io_stack_us_mean", "us"},
    {"sdf.read_us_mean", "us"},
    {"sdf.read_us_p99", "us"},
    {"sdf.write_unit_ms_mean", "ms"},
    {"sdf.erase_ms_mean", "ms"},
    {"sdf.read_bytes", "bytes"},
    {"sdf.written_bytes", "bytes"},
    {"sdf.read_retries", "count"},
    {"controller.link_util", "fraction"},
    {"controller.irq_merge_factor", "ratio"},
    {"nand.bus_util_mean", "fraction"},
    {"nand.bus_util_max", "fraction"},
    {"nand.bus_util_min", "fraction"},
    {"nand.page_reads", "count"},
    {"nand.page_programs", "count"},
    {"nand.block_erases", "count"},
    {"ssd.gc_pages_moved_per_host_page", "ratio"},
    {"ssd.gc_erases", "count"},
    {"ssd.cache_hit_ratio", "fraction"},
    {"ssd.write_ms_mean", "ms"},
    {"ftl.swl_migrations", "count"},
};

using RunFn = Round (*)(uint64_t, bool, const std::string &);

struct WorkloadDef
{
    const char *name;
    RunFn run;
};

const WorkloadDef kWorkloads[] = {
    {"cluster_read_hot", RunClusterReadHot},
    {"cluster_write_mix", RunClusterWriteMix},
    {"slice_batch_read", RunSliceBatchRead},
    {"slice_write_ssd", RunSliceWriteSsd},
};

constexpr size_t kMinRounds = 3;

double
Median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
PeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

int
Usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-dir <dir>]\nworkloads:",
                 msg);
    for (const WorkloadDef &w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

/** First key whose value differs between the two maps, or "". */
std::string
FirstDifference(const std::map<std::string, double> &a,
                const std::map<std::string, double> &b)
{
    for (const auto &[k, v] : a) {
        auto it = b.find(k);
        if (it == b.end() || it->second != v) return k;
    }
    return a.size() == b.size() ? "" : "(key set)";
}

void
PrintRound(const Round &r, const char *label)
{
    std::printf("-- %s: setup %.3f s, measured phase %.3f s host, %.0f ops, "
                "%llu events\n",
                label, r.setup_host_s, r.measured_host_s, r.ops_completed,
                static_cast<unsigned long long>(r.events));
}

}  // namespace

int
Main(int argc, char **argv)
{
    std::string workload, spans_dir;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
            have_seed = end != v && *end == '\0';
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
            if (end == v || *end != '\0') seconds = -1.0;
        } else if (a == "--trace") {
            trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
        } else if (a == "--spans-dir") {
            spans_dir = v;
        } else {
            return Usage(("unknown argument " + a).c_str());
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (workload == w.name) def = &w;
    }
    if (def == nullptr) return Usage("unknown or missing --workload");
    if (!have_seed) return Usage("missing or bad --seed");
    if (!(seconds > 0.0)) return Usage("missing or bad --seconds");
    if (trace < 0) return Usage("--trace must be 0 or 1");

    std::printf("perfbench %s seed %llu trace %d\n", def->name,
                static_cast<unsigned long long>(seed), trace);
    std::vector<std::string> problems;

    // Seed check: the op stream is a function of the seed alone.
    const uint64_t hash = OpStreamHash(def->name, seed);
    const uint64_t hash_next = OpStreamHash(def->name, seed + 1);
    std::printf("op stream hash %016llx (seed %llu), %016llx (seed %llu)\n",
                static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(hash_next),
                static_cast<unsigned long long>(seed + 1));
    if (hash == hash_next) problems.push_back("op stream does not depend on the seed");

    // The run's length is wall time; the metrics use CPU time.
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Round> plain, traced;
    auto time_left = [&](size_t done) {
        const double used =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        return used + used / static_cast<double>(done) < seconds;
    };
    if (trace == 0) {
        do {
            plain.push_back(def->run(seed, false, ""));
            PrintRound(plain.back(), ("round " + std::to_string(plain.size())).c_str());
        } while (plain.size() < kMinRounds || time_left(plain.size()));
    } else {
        std::string span_path;
        if (!spans_dir.empty()) {
            span_path = spans_dir + "/" + def->name + ".csv";
        }
        do {
            plain.push_back(def->run(seed, false, ""));
            PrintRound(plain.back(), "untraced");
            traced.push_back(def->run(seed, true, traced.empty() ? span_path : ""));
            PrintRound(traced.back(), "traced");
        } while (time_left(plain.size()));
    }

    const Round &first = plain.front();
    for (const Round &r : plain) {
        for (const std::string &v : r.violations) problems.push_back(v);
        const std::string diff = FirstDifference(first.sim, r.sim);
        if (!diff.empty()) {
            problems.push_back("same seed, different simulated result: " + diff);
        }
        if (r.op_hash != first.op_hash) problems.push_back("op stream changed between rounds");
    }
    for (const Round &r : traced) {
        for (const std::string &v : r.violations) problems.push_back(v);
        const std::string diff = FirstDifference(first.sim, r.sim);
        if (!diff.empty()) {
            problems.push_back("tracing perturbed the simulated result: " + diff);
        }
    }
    if (first.op_hash != 0 && first.op_hash != hash) {
        problems.push_back("the program ran a different op stream than generated");
    }

    for (const std::string &line : first.report) std::printf("%s\n", line.c_str());
    for (const SelfCheck &c : first.checks) {
        std::printf("self-check %s = %.6g over %s (rule %s): %s\n", c.name.c_str(),
                    c.value, c.base.c_str(), c.rule.c_str(), c.pass ? "pass" : "FAIL");
        if (!c.pass) problems.push_back("self-check failed: " + c.name);
    }

    // Simulator throughput: slice by slice of the measured phase, the
    // fastest of the identical untraced rounds.
    std::vector<double> fastest = first.chunk_host_s;
    for (const Round &r : plain) {
        if (r.chunk_host_s.size() != fastest.size()) {
            problems.push_back("rounds cut different measured slices");
            break;
        }
        for (size_t k = 0; k < fastest.size(); ++k) {
            fastest[k] = std::min(fastest[k], r.chunk_host_s[k]);
        }
    }
    double host_s = 0.0;
    for (double v : fastest) host_s += v;
    const double ops_per_host_s = Ratio(first.ops_completed, host_s);
    std::printf("simulator throughput %.1f client ops per host second\n", ops_per_host_s);

    std::map<std::string, double> out;
    std::vector<MetricDef> defs;
    if (trace == 0) {
        out = first.sim;
        // Set-up takes the least disturbed round: other work on a shared
        // host only ever slows a round down.
        double setup_s = first.setup_host_s;
        for (const Round &r : plain) setup_s = std::min(setup_s, r.setup_host_s);
        out["setup_s"] = setup_s;
        out["peak_rss_mb"] = PeakRssMb();
        std::printf("%zu rounds; simulated metrics identical in every round: %s\n",
                    plain.size(), problems.empty() ? "yes" : "see problems");
        defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    } else {
        out = traced.front().layer;
        for (const char *k : {"write_amp", "failed_frac", "paper_gap_pct"}) {
            auto it = first.sim.find(k);
            out[k] = it == first.sim.end() ? 0.0 : it->second;
        }
        std::vector<double> overhead, per_event, per_call;
        for (size_t i = 0; i < traced.size(); ++i) {
            overhead.push_back(traced[i].measured_host_s - plain[i].measured_host_s);
            per_event.push_back(traced[i].layer.count("sim.host_ns_per_event")
                                    ? traced[i].layer.at("sim.host_ns_per_event")
                                    : 0.0);
            per_call.push_back(traced[i].layer.count("client.host_ns_per_call")
                                   ? traced[i].layer.at("client.host_ns_per_call")
                                   : 0.0);
        }
        out["trace.overhead_host_s"] = Median(overhead);
        out["sim.ops_per_host_s"] = ops_per_host_s;
        out["sim.host_ns_per_event"] = Median(per_event);
        out["client.host_ns_per_call"] = Median(per_call);
        std::printf("%zu traced/untraced pairs; tracing overhead %.4f s host "
                    "(median of traced minus untraced measured phase); simulated "
                    "end-to-end metrics equal: %s\n",
                    traced.size(), out["trace.overhead_host_s"],
                    problems.empty() ? "yes" : "see problems");
        for (const std::string &line : traced.front().report) {
            if (line.rfind("spans:", 0) == 0) std::printf("%s\n", line.c_str());
        }
        defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    }

    for (const std::string &p : problems) std::printf("PROBLEM: %s\n", p.c_str());
    const bool correct = problems.empty();

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(first.attempted),
                static_cast<unsigned long long>(first.failed));
    for (size_t i = 0; i < defs.size(); ++i) {
        auto it = out.find(defs[i].name);
        const double v = it == out.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    defs[i].name, v, defs[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}

}  // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::Main(argc, argv);
}
