/**
 * @file
 * The two single-node workloads, driven closed loop over net::Network
 * straight into the slices (no client front door, no router):
 *
 *  - slice_batch_read: the Figure 11 point on SDF (8 slices, one client
 *    per slice, batches of 44 random 512 KiB reads), followed by a short
 *    Figure 14-style write phase on the same node for the write metrics;
 *  - slice_write_ssd: the Figure 14 write-plus-compaction point on the
 *    Huawei Gen3 SSD through SsdBlockDevice and the block layer, with one
 *    reader per slice beside each writer, on a preconditioned device so
 *    its garbage collector runs inside the measured window.
 *
 * The stack is wired from the public constructors as
 * testbed::BuildStorageStack does; a traced round inserts probes at the
 * BlockDevice and PatchStorage seams.
 */
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "blocklayer/block_layer.h"
#include "host/io_stack.h"
#include "kv/patch_storage.h"
#include "kv/store.h"
#include "net/network.h"
#include "obs/hub.h"
#include "probes.h"
#include "sdf/sdf_device.h"
#include "ssd/conventional_ssd.h"
#include "ssd/ssd_block_device.h"
#include "stack_counters.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace sdf;

constexpr uint32_t kSlices = 8;
constexpr uint32_t kAckBytes = 64;
constexpr int kMeasuredSlices = 200;
constexpr uint64_t kWriterKeys = 256;  // Per slice: ~144 MiB live at 562 KiB mean.

/** One node's stack; the probes exist only in traced rounds. */
struct Node
{
    std::unique_ptr<core::SdfDevice> sdf;
    std::unique_ptr<ssd::ConventionalSsd> ssd;
    std::unique_ptr<ssd::SsdBlockDevice> adapter;
    std::unique_ptr<ProbedBlockDevice> device_probe;
    std::unique_ptr<blocklayer::BlockLayer> layer;
    std::unique_ptr<host::IoStack> io;
    std::unique_ptr<kv::BlockPatchStorage> storage;
    std::unique_ptr<ProbedPatchStorage> storage_probe;
    std::unique_ptr<kv::Store> store;

    StackView
    view()
    {
        return {store.get(), layer.get(), io.get(), sdf.get(), ssd.get()};
    }
};

Node
BuildNode(sim::Simulator &sim, bool on_ssd, double scale, Tracer *tracer)
{
    Node n;
    core::BlockDevice *dev = nullptr;
    if (on_ssd) {
        n.ssd = std::make_unique<ssd::ConventionalSsd>(sim, ssd::HuaweiGen3Config(scale));
        n.adapter = std::make_unique<ssd::SsdBlockDevice>(sim, *n.ssd);
        n.io = std::make_unique<host::IoStack>(sim, host::KernelIoStackSpec());
        dev = n.adapter.get();
    } else {
        n.sdf = std::make_unique<core::SdfDevice>(sim, core::BaiduSdfConfig(scale));
        n.io = std::make_unique<host::IoStack>(sim, host::SdfUserStackSpec());
        dev = n.sdf.get();
    }
    if (tracer != nullptr) {
        n.device_probe = std::make_unique<ProbedBlockDevice>(sim, *dev, *tracer);
        dev = n.device_probe.get();
    }
    n.layer = std::make_unique<blocklayer::BlockLayer>(sim, *dev,
                                                       blocklayer::BlockLayerConfig{});
    n.storage = std::make_unique<kv::BlockPatchStorage>(*n.layer, n.io.get());
    kv::PatchStorage *storage = n.storage.get();
    if (tracer != nullptr) {
        n.storage_probe = std::make_unique<ProbedPatchStorage>(sim, *storage, *tracer);
        storage = n.storage_probe.get();
    }
    kv::StoreConfig sc;
    sc.slice_count = kSlices;
    n.store = std::make_unique<kv::Store>(sim, *storage, sc);
    return n;
}

/**
 * Install @p per_slice values of @p value_bytes in every slice as sorted,
 * already-compacted patches: the preloaded production state the paper's
 * read experiments assume. @return each slice's keys.
 */
std::vector<std::vector<uint64_t>>
Preload(kv::Store &store, uint64_t seed, uint32_t per_slice, uint32_t value_bytes,
        Round &r)
{
    const std::vector<uint64_t> keys = MakeKeys(seed ^ 0x7072656CULL, kSlices * per_slice);
    std::vector<std::vector<uint64_t>> out(kSlices);
    for (uint32_t s = 0; s < kSlices; ++s) {
        out[s].assign(keys.begin() + s * per_slice, keys.begin() + (s + 1) * per_slice);
        std::vector<uint64_t> sorted = out[s];
        std::sort(sorted.begin(), sorted.end());
        kv::Slice &slice = store.slice(s);
        const uint64_t per_patch = slice.patch_bytes() / value_bytes;
        for (size_t i = 0; i < sorted.size(); i += per_patch) {
            std::vector<kv::KvItem> items;
            for (size_t j = i; j < std::min(sorted.size(), i + per_patch); ++j) {
                items.push_back(kv::KvItem{sorted[j], value_bytes, nullptr});
            }
            if (!slice.DebugPreloadPatch(std::move(items))) {
                r.Violation("preload: storage full on slice " + std::to_string(s));
                return out;
            }
        }
    }
    return out;
}

/** Wraps slice calls in kv.get / kv.put spans when tracing. */
struct SliceCalls
{
    sim::Simulator &sim;
    Tracer *tracer;
    uint64_t next_request = 1;

    template <typename Done>
    void
    Get(kv::Slice &slice, uint64_t key, Done done)
    {
        if (tracer == nullptr) {
            slice.Get(key, std::move(done));
            return;
        }
        const uint32_t h = tracer->Open("kv.get", Now(), next_request++);
        Tracer::Active on(tracer, h);
        slice.Get(key, [this, h, done = std::move(done)](const kv::GetResult &res) mutable {
            tracer->Close(h, Now());
            Tracer::Active on(tracer, h);
            done(res);
        });
    }

    template <typename Done>
    void
    Put(kv::Slice &slice, uint64_t key, uint32_t size, Done done)
    {
        if (tracer == nullptr) {
            slice.Put(key, size, std::move(done));
            return;
        }
        const uint32_t h = tracer->Open("kv.put", Now(), next_request++);
        Tracer::Active on(tracer, h);
        slice.Put(key, size, [this, h, done = std::move(done)](bool ok) mutable {
            tracer->Close(h, Now());
            Tracer::Active on(tracer, h);
            done(ok);
        });
    }

    int64_t Now() const { return static_cast<int64_t>(sim.Now()); }
};

/** Run @p sim in 10 ms slices until @p idle() (bounded). */
void
RunUntilIdle(sim::Simulator &sim, const std::function<bool()> &idle)
{
    for (int i = 0; i < 100000 && !idle(); ++i) {
        sim.RunUntil(sim.Now() + util::MsToNs(10));
    }
}

/** Traced-round per-layer metrics every single-node workload shares. */
void
AddProbeMetrics(Round &r, const Tracer &t, bool on_ssd)
{
    auto &L = r.layer;
    const SpanSummary get = Summarize(t, "kv.get"), put = Summarize(t, "kv.put");
    L["kv.storage_us_mean"] =
        Ratio(get.mean_ns * get.count + put.mean_ns * put.count,
              static_cast<double>(get.count + put.count)) / 1e3;
    const SpanSummary pg = Summarize(t, "kv.patch_get"), pp = Summarize(t, "kv.patch_put");
    L["kv.patch_get_us_mean"] = pg.mean_ns / 1e3;
    L["kv.patch_put_ms_mean"] = pp.mean_ns / 1e6;
    L["blocklayer.self_us_mean"] =
        Ratio(pg.self_mean_ns * pg.count + pp.self_mean_ns * pp.count,
              static_cast<double>(pg.count + pp.count)) / 1e3;
    const SpanSummary rd = Summarize(t, "dev.read"), wr = Summarize(t, "dev.write_unit"),
                      er = Summarize(t, "dev.erase");
    if (on_ssd) {
        L["ssd.write_ms_mean"] = wr.mean_ns / 1e6;
    } else {
        L["sdf.read_us_mean"] = rd.mean_ns / 1e3;
        L["sdf.read_us_p99"] = rd.p99_ns / 1e3;
        L["sdf.write_unit_ms_mean"] = wr.mean_ns / 1e6;
        L["sdf.erase_ms_mean"] = er.mean_ns / 1e6;
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "spans: %llu kv.get, %llu kv.put, %llu patch_get, %llu patch_put, "
                  "%llu dev.read, %llu dev.write_unit, %llu dev.erase",
                  static_cast<unsigned long long>(get.count),
                  static_cast<unsigned long long>(put.count),
                  static_cast<unsigned long long>(pg.count),
                  static_cast<unsigned long long>(pp.count),
                  static_cast<unsigned long long>(rd.count),
                  static_cast<unsigned long long>(wr.count),
                  static_cast<unsigned long long>(er.count));
    r.report.push_back(line);
}

/**
 * Closed-loop writers, one per slice, sizes uniform in [lo, hi]. Each
 * writer overwrites keys drawn from its own pool of kWriterKeys, so live
 * data stays bounded and compaction reclaims the old versions.
 */
struct Writers
{
    sim::Simulator &sim;
    net::Network &net;
    kv::Store &store;
    SliceCalls &calls;
    Round &r;
    uint64_t seed;
    uint32_t lo, hi;  ///< Network client s writes slice s.
    std::vector<Rng> rng{};
    bool running = false;
    int64_t window_start = 0, window_end = 0;
    OpTally tally{};  ///< Ops issued and completed inside the window.
    uint32_t inflight = 0;
    uint64_t issued_total = 0, acked_total = 0;
    /** key -> (slice, size) of every acked put, for the audit. */
    std::map<uint64_t, std::pair<uint32_t, uint32_t>> acked{};

    void
    Start()
    {
        running = true;
        for (uint32_t s = 0; s < kSlices; ++s) {
            rng.emplace_back(seed * 16 + 5 + s);
            Next(s);
        }
    }

    void
    Next(uint32_t s)
    {
        if (!running) return;
        Rng &g = rng[s];
        const uint64_t key = Mix64((seed << 20) ^ (uint64_t{s} << 16) ^ g.Below(kWriterKeys)) | 1;
        const auto size = static_cast<uint32_t>(g.InRange(lo, hi));
        const int64_t t0 = static_cast<int64_t>(sim.Now());
        const bool in_window = t0 >= window_start && t0 < window_end;
        ++inflight;
        ++issued_total;
        if (in_window) ++tally.issued;
        auto ok = std::make_shared<bool>(false);
        net.Rpc(
            s, size,
            [this, s, key, size, ok](std::function<void(uint64_t)> reply) {
                calls.Put(store.slice(s), key, size,
                          [this, s, key, size, ok, reply](bool done_ok) {
                              *ok = done_ok;
                              if (done_ok) {
                                  acked[key] = {s, size};
                                  ++acked_total;
                              }
                              reply(kAckBytes);
                          });
            },
            [this, s, t0, in_window, size, ok]() {
                --inflight;
                if (in_window) {
                    ++tally.settled;
                    if (*ok) {
                        ++tally.ok;
                        tally.put_bytes += size;
                        tally.write_ns.push_back(
                            static_cast<double>(static_cast<int64_t>(sim.Now()) - t0));
                    } else {
                        ++tally.errors;
                    }
                }
                if (!*ok) r.Violation("put not acked");
                Next(s);
            });
    }
};

/** Read back every acked write through its slice; @return keys lost. */
uint64_t
AuditWrites(sim::Simulator &sim, kv::Store &store, const Writers &w, Round &r)
{
    uint64_t lost = 0, done = 0;
    auto next = w.acked.begin();
    uint32_t inflight = 0;
    std::function<void()> pump = [&]() {
        while (inflight < 32 && next != w.acked.end()) {
            const uint64_t key = next->first;
            const auto [slice, size] = next->second;
            ++next;
            ++inflight;
            store.slice(slice).Get(key, [&, key, size](const kv::GetResult &res) {
                --inflight;
                ++done;
                if (!res.ok || !res.found || res.value_size != size) {
                    ++lost;
                    r.Violation("audit: acked key " + std::to_string(key) +
                                " missing or wrong size");
                }
                pump();
            });
        }
    };
    pump();
    sim.Run();
    if (done != w.acked.size()) r.Violation("audit did not finish");
    return lost;
}

// ---------------------------------------------------------------------------
// slice_batch_read
// ---------------------------------------------------------------------------

constexpr uint32_t kBatch = 44;
constexpr uint32_t kReadValue = 512 * 1024;
constexpr uint32_t kBatchPreloadPerSlice = 400;  // 200 MiB per slice.
constexpr double kBatchScale = 0.06;
constexpr double kBatchWarmupS = 0.4;
constexpr double kBatchReadS = 40.0;
constexpr double kBatchWriteS = 45.0;
constexpr double kBatchSloP99Us = 400000.0;
constexpr double kPaperFig11Mbps = 1500.0;

}  // namespace

Round
RunSliceBatchRead(uint64_t seed, bool traced, const std::string &span_path)
{
    Round r;
    const double setup0 = HostNow();
    sim::Simulator sim;
    obs::Hub hub;
    if (traced) sim.set_hub(&hub);
    Tracer tracer;
    Node node = BuildNode(sim, false, kBatchScale, traced ? &tracer : nullptr);
    net::Network net(sim, net::NetworkSpec{}, kSlices);
    const auto keys = Preload(*node.store, seed, kBatchPreloadPerSlice, kReadValue, r);
    r.setup_host_s = HostNow() - setup0;

    SliceCalls calls{sim, traced ? &tracer : nullptr};
    const std::vector<StackView> views{node.view()};
    const int64_t t_start = static_cast<int64_t>(sim.Now());
    const int64_t ms = t_start + static_cast<int64_t>(kBatchWarmupS * 1e9);
    const int64_t me = ms + static_cast<int64_t>(kBatchReadS * 1e9);

    // ---- Read phase: one closed-loop client per slice.
    std::vector<Rng> pick;
    for (uint32_t s = 0; s < kSlices; ++s) pick.emplace_back(seed * 16 + 1 + s);
    bool reading = true;
    uint32_t busy = 0;
    uint64_t requested = 0, delivered = 0;
    // Sub-reads delivered in the window, each timed from its batch's issue.
    OpTally reads;
    std::vector<double> batch_ns;  // Whole batches completed in the window.
    std::function<void(uint32_t)> next_batch = [&](uint32_t s) {
        if (!reading) return;
        std::vector<uint64_t> batch(kBatch);
        for (uint64_t &k : batch) k = keys[s][pick[s].Below(keys[s].size())];
        ++busy;
        const int64_t t0 = static_cast<int64_t>(sim.Now());
        net.ClientToServer(s, 256, [&, s, t0, batch = std::move(batch)]() {
            auto remaining = std::make_shared<uint32_t>(kBatch);
            for (uint64_t key : batch) {
                ++requested;
                calls.Get(node.store->slice(s), key,
                          [&, s, t0, remaining, key](const kv::GetResult &res) {
                              const bool good = res.ok && res.found &&
                                                res.value_size == kReadValue;
                              if (!good) {
                                  ++reads.errors;
                                  r.Violation("sub-read of key " + std::to_string(key) +
                                              " failed or wrong size");
                              }
                              const uint32_t bytes = good ? res.value_size : kAckBytes;
                              net.Push(s, bytes, [&, s, t0, remaining, good, bytes]() {
                                  ++delivered;
                                  const auto now = static_cast<int64_t>(sim.Now());
                                  const bool in_window = now >= ms && now < me;
                                  if (good && in_window) {
                                      ++reads.ok;
                                      reads.read_bytes += bytes;
                                      reads.read_ns.push_back(static_cast<double>(now - t0));
                                  }
                                  if (--*remaining > 0) return;
                                  --busy;
                                  if (in_window) batch_ns.push_back(static_cast<double>(now - t0));
                                  next_batch(s);
                              });
                          });
            }
        });
    };
    for (uint32_t s = 0; s < kSlices; ++s) next_batch(s);
    sim.RunUntil(static_cast<util::TimeNs>(ms));
    const Counters c0 = Snapshot(views, static_cast<int64_t>(sim.Now()), sim.events_processed());
    const double link0 = traced ? SumHubCounters(hub, "link.to_host_bytes") : 0.0;
    RunMeasured(sim, me, kMeasuredSlices, r);
    const Counters c1 = Snapshot(views, static_cast<int64_t>(sim.Now()), sim.events_processed());
    const double link1 = traced ? SumHubCounters(hub, "link.to_host_bytes") : 0.0;
    r.events = c1.events - c0.events;
    reading = false;
    RunUntilIdle(sim, [&]() { return busy == 0; });
    if (requested != delivered) {
        r.Violation("sub-reads requested " + std::to_string(requested) + " delivered " +
                    std::to_string(delivered));
    }

    // ---- Write phase: one closed-loop writer per slice, Figure 14 sizes.
    const int64_t ws = static_cast<int64_t>(sim.Now());
    const int64_t we = ws + static_cast<int64_t>(kBatchWriteS * 1e9);
    Writers writers{sim, net, *node.store, calls, r, seed, 100 * 1024, 1024 * 1024};
    writers.window_start = ws;
    writers.window_end = we;
    const Counters w0 = Snapshot(views, ws, sim.events_processed());
    writers.Start();
    sim.RunUntil(static_cast<util::TimeNs>(we));
    const Counters w1 = Snapshot(views, static_cast<int64_t>(sim.Now()), sim.events_processed());
    writers.running = false;
    RunUntilIdle(sim, [&]() { return writers.inflight == 0; });
    sim.Run();
    const uint64_t lost = AuditWrites(sim, *node.store, writers, r);

    // ---- Metrics: throughput and reads from the read phase (the
    // Figure 11 point), write latencies from the write phase.
    OpTally all = reads;
    all.issued = requested + writers.tally.issued;
    all.ok += writers.tally.ok;
    all.errors += writers.tally.errors;
    all.write_ns = writers.tally.write_ns;
    r.attempted = requested + writers.issued_total;
    r.failed = reads.errors + (writers.issued_total - writers.acked_total) + lost;
    r.ops_completed = static_cast<double>(reads.ok);

    std::sort(batch_ns.begin(), batch_ns.end());
    const double batch_p99_us = Quantile(batch_ns, 0.99) / 1e3;
    const double goodput = static_cast<double>(reads.ok) / kBatchReadS;
    EndToEndInputs in;
    in.sim_s = kBatchReadS;
    in.max_rate_at_slo = batch_p99_us <= kBatchSloP99Us ? goodput : 0.0;
    in.raw_read_bw = RawNandBandwidth(views, true);
    in.raw_write_bw = RawNandBandwidth(views, false);
    in.nand_programmed_bytes =
        static_cast<double>(w1.nand_programmed_bytes - w0.nand_programmed_bytes);
    in.write_amp_base = writers.tally.put_bytes;
    in.lost_writes = lost;
    in.latency_scope = "read phase sub-reads (timed from their batch's issue) and "
                       "write phase puts";
    all.ok = reads.ok;  // goodput counts the read phase's sub-reads
    FillEndToEnd(r, all, in);
    r.sim["paper_gap_pct"] =
        std::abs(r.sim["client_mbps"] - kPaperFig11Mbps) / kPaperFig11Mbps * 100.0;
    char line[240];
    std::snprintf(line, sizeof line,
                  "read phase: %zu batches of %u x 512 KiB completed in %.1f s, "
                  "%llu sub-reads, %.1f MB/s; paper Fig. 11 ~%.0f MB/s, gap %.2f%%",
                  batch_ns.size(), kBatch, kBatchReadS,
                  static_cast<unsigned long long>(reads.ok), r.sim["client_mbps"],
                  kPaperFig11Mbps, r.sim["paper_gap_pct"]);
    r.report.push_back(line);
    r.report.push_back(LatencyLine("batch", batch_ns));
    std::snprintf(line, sizeof line,
                  "write phase: %llu puts acked in %.1f s, %.1f MB",
                  static_cast<unsigned long long>(writers.tally.ok), kBatchWriteS,
                  writers.tally.put_bytes / 1e6);
    r.report.push_back(line);

    // ---- Traffic self-checks.
    std::map<std::string, double> lm;
    AddLayerMetrics(c0, c1, static_cast<double>(reads.ok), 0.0, lm);
    r.checks.push_back({"nand.bus_util_mean", lm["nand.bus_util_mean"],
                        std::to_string(c1.bus_busy_ns.size()) + " channels over the read phase",
                        ">= 0.5", lm["nand.bus_util_mean"] >= 0.5});
    r.checks.push_back({"client_front_door_calls", 0.0,
                        "KvClient is not constructed in this workload", "== 0", true});

    if (!traced) return r;
    r.layer = lm;
    auto &L = r.layer;
    L["sim.host_ns_per_event"] = Ratio(r.measured_host_s * 1e9, static_cast<double>(r.events));
    L["net.msgs_per_op"] = Ratio(static_cast<double>(net.messages()), static_cast<double>(requested));
    const double link_bw = node.sdf->config().link.to_host_bytes_per_sec;
    L["controller.link_util"] =
        Ratio(link1 - link0, link_bw * static_cast<double>(c1.sim_ns - c0.sim_ns) / 1e9);
    AddProbeMetrics(r, tracer, false);
    if (!span_path.empty() && !tracer.WriteCsv(span_path)) {
        r.Violation("could not write spans to " + span_path);
    }
    return r;
}

// ---------------------------------------------------------------------------
// slice_write_ssd
// ---------------------------------------------------------------------------

namespace {

constexpr double kSsdScale = 0.04;
constexpr uint32_t kSsdReadValue = 128 * 1024;
constexpr uint32_t kSsdPreloadPerSlice = 256;  // 32 MiB per slice.
constexpr double kSsdFill = 0.9;
constexpr double kSsdWarmupS = 1.0;
constexpr double kSsdMeasureS = 90.0;
constexpr double kSsdSloP99Us = 2000000.0;

}  // namespace

Round
RunSliceWriteSsd(uint64_t seed, bool traced, const std::string &span_path)
{
    Round r;
    const double setup0 = HostNow();
    sim::Simulator sim;
    obs::Hub hub;
    if (traced) sim.set_hub(&hub);
    Tracer tracer;
    Node node = BuildNode(sim, true, kSsdScale, traced ? &tracer : nullptr);
    net::Network net(sim, net::NetworkSpec{}, 2 * kSlices);
    const auto keys = Preload(*node.store, seed, kSsdPreloadPerSlice, kSsdReadValue, r);
    node.ssd->PreconditionFillRandom(kSsdFill);
    r.setup_host_s = HostNow() - setup0;

    SliceCalls calls{sim, traced ? &tracer : nullptr};
    const std::vector<StackView> views{node.view()};
    const int64_t t_start = static_cast<int64_t>(sim.Now());
    const int64_t ms = t_start + static_cast<int64_t>(kSsdWarmupS * 1e9);
    const int64_t me = ms + static_cast<int64_t>(kSsdMeasureS * 1e9);

    Writers writers{sim, net, *node.store, calls, r, seed, 100 * 1024, 1024 * 1024};
    writers.window_start = ms;
    writers.window_end = me;

    // Readers: client kSlices + s reads random preloaded keys of slice s.
    std::vector<Rng> pick;
    for (uint32_t s = 0; s < kSlices; ++s) pick.emplace_back(seed * 16 + 1 + s);
    bool reading = true;
    uint32_t readers_busy = 0;
    uint64_t reads_issued = 0, reads_failed = 0;
    OpTally reads;
    std::function<void(uint32_t)> next_read = [&](uint32_t s) {
        if (!reading) return;
        const uint64_t key = keys[s][pick[s].Below(keys[s].size())];
        const int64_t t0 = static_cast<int64_t>(sim.Now());
        const bool in_window = t0 >= ms && t0 < me;
        ++readers_busy;
        ++reads_issued;
        if (in_window) ++reads.issued;
        auto good = std::make_shared<bool>(false);
        net.Rpc(
            kSlices + s, kAckBytes,
            [&, s, key, good](std::function<void(uint64_t)> reply) {
                calls.Get(node.store->slice(s), key,
                          [&, key, good, reply](const kv::GetResult &res) {
                              *good = res.ok && res.found && res.value_size == kSsdReadValue;
                              if (!*good) {
                                  r.Violation("read of key " + std::to_string(key) +
                                              " failed or wrong size");
                              }
                              reply(*good ? res.value_size : kAckBytes);
                          });
            },
            [&, s, t0, in_window, good]() {
                --readers_busy;
                if (!*good) ++reads_failed;
                if (in_window) {
                    ++reads.settled;
                    if (*good) {
                        ++reads.ok;
                        reads.read_bytes += kSsdReadValue;
                        reads.read_ns.push_back(
                            static_cast<double>(static_cast<int64_t>(sim.Now()) - t0));
                    } else {
                        ++reads.errors;
                    }
                }
                next_read(s);
            });
    };
    writers.Start();
    for (uint32_t s = 0; s < kSlices; ++s) next_read(s);

    sim.RunUntil(static_cast<util::TimeNs>(ms));
    const Counters c0 = Snapshot(views, static_cast<int64_t>(sim.Now()), sim.events_processed());
    RunMeasured(sim, me, kMeasuredSlices, r);
    const Counters c1 = Snapshot(views, static_cast<int64_t>(sim.Now()), sim.events_processed());
    r.events = c1.events - c0.events;
    reading = false;
    writers.running = false;
    RunUntilIdle(sim, [&]() { return readers_busy == 0 && writers.inflight == 0; });
    sim.Run();
    const uint64_t lost = AuditWrites(sim, *node.store, writers, r);

    OpTally all = reads;
    all.issued += writers.tally.issued;
    all.settled += writers.tally.settled;
    all.ok += writers.tally.ok;
    all.errors += writers.tally.errors;
    all.put_bytes = writers.tally.put_bytes;
    all.write_ns = writers.tally.write_ns;
    r.attempted = reads_issued + writers.issued_total;
    r.failed = reads_failed + (writers.issued_total - writers.acked_total) + lost;
    r.ops_completed = static_cast<double>(all.settled);

    std::sort(all.read_ns.begin(), all.read_ns.end());
    const double read_p99_us = Quantile(all.read_ns, 0.99) / 1e3;
    EndToEndInputs in;
    in.sim_s = kSsdMeasureS;
    in.max_rate_at_slo =
        read_p99_us <= kSsdSloP99Us ? static_cast<double>(all.ok) / kSsdMeasureS : 0.0;
    in.raw_read_bw = RawNandBandwidth(views, true);
    in.raw_write_bw = RawNandBandwidth(views, false);
    in.nand_programmed_bytes =
        static_cast<double>(c1.nand_programmed_bytes - c0.nand_programmed_bytes);
    in.lost_writes = lost;
    in.write_dominant = true;
    FillEndToEnd(r, all, in);

    std::map<std::string, double> lm;
    AddLayerMetrics(c0, c1, static_cast<double>(all.settled), all.put_bytes, lm);
    const uint64_t moved = c1.ssd.gc_pages_moved - c0.ssd.gc_pages_moved;
    r.checks.push_back({"ssd.gc_pages_moved", static_cast<double>(moved),
                        std::to_string(c1.ssd.host_pages_written - c0.ssd.host_pages_written) +
                            " host pages written in the window",
                        "> 0", moved > 0});

    if (!traced) return r;
    r.layer = lm;
    auto &L = r.layer;
    L["sim.host_ns_per_event"] = Ratio(r.measured_host_s * 1e9, static_cast<double>(r.events));
    L["net.msgs_per_op"] = Ratio(static_cast<double>(net.messages()),
                                 static_cast<double>(reads_issued + writers.issued_total));
    AddProbeMetrics(r, tracer, true);
    if (!span_path.empty() && !tracer.WriteCsv(span_path)) {
        r.Violation("could not write spans to " + span_path);
    }
    return r;
}

uint64_t
SliceOpStreamHash(const std::string &workload, uint64_t seed)
{
    // The closed loops draw keys as they go; the fingerprint covers the
    // preloaded key set and the first draws of every client's stream.
    StreamHash h;
    const bool batch = workload == "slice_batch_read";
    const uint32_t per_slice = batch ? kBatchPreloadPerSlice : kSsdPreloadPerSlice;
    const std::vector<uint64_t> keys = MakeKeys(seed ^ 0x7072656CULL, kSlices * per_slice);
    for (uint32_t s = 0; s < kSlices; ++s) {
        for (uint32_t i = 0; i < per_slice; ++i) h.Add(keys[s * per_slice + i]);
    }
    std::vector<Rng> pick;
    for (uint32_t s = 0; s < kSlices; ++s) pick.emplace_back(seed * 16 + 1 + s);
    for (uint32_t n = 0; n < 64 * kSlices; ++n) {
        const uint32_t s = n % kSlices;
        h.Add(keys[s * per_slice + pick[s].Below(per_slice)]);
    }
    return h.value();
}

}  // namespace perfbench
